package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {95, 95, 5}, {99, 99, 1}, {100, 100, 0}, {0.1, 1, 99}} {
		got, beyond := percentile(xs, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(1..100, %g) = %g with %d beyond, want %g with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of nothing = %g, want NaN", v)
	}
	if median(nil) != 0 {
		t.Errorf("median of nothing = %g, want 0", median(nil))
	}
}

// The ten-beyond guard: p95 needs 200 samples to leave ten beyond it;
// with fewer the tail falls back to the highest percentile that does.
func TestTailPercentileTenBeyondGuard(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{{1000, 95}, {220, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50}} {
		v, p := tailPercentile(series(c.n), 95)
		if p != c.wantP {
			t.Errorf("n=%d: tail percentile p%g, want p%g", c.n, p, c.wantP)
		}
		if _, beyond := percentile(series(c.n), p); p > 50 && beyond < percentileBeyond {
			t.Errorf("n=%d: p%g=%g has only %d samples beyond it", c.n, p, v, beyond)
		}
	}
	// The reported tail: a time-bounded pass always reaches it.
	if _, p := tailPercentile(series(minTimedIntervals), tailPct); p != tailPct {
		t.Errorf("%d intervals report p%g, want p%d", minTimedIntervals, p, tailPct)
	}
	if _, p := tailPercentile(series(99), tailPct); p != 75 {
		t.Errorf("99 intervals report p%g, want the p75 fallback", p)
	}
}

// quietTail reads past a burst of host noise that a whole-pass p90 lands
// in, keeps the expensive mode of a bimodal workload, and declines a
// pass too short to slice.
func TestQuietTail(t *testing.T) {
	// 400 intervals alternating 2 ms and 4 ms, like flat-1k's renew and
	// assign halves; intervals 100–159 (15 % of the pass) ran under a
	// burst that tripled them.
	ms := make([]float64, 400)
	for i := range ms {
		ms[i] = 2 + 2*float64(i%2)
		if i >= 100 && i < 160 {
			ms[i] *= 3
		}
	}
	whole, _ := percentile(sortedCopy(ms), tailPct)
	if whole != 6 {
		t.Fatalf("whole-pass p%d = %g, want 6: the burst should own it", tailPct, whole)
	}
	v, ok := quietTail(ms)
	if !ok || v != 4 {
		t.Errorf("quietTail = %g (ok=%v), want the quiet slices' expensive mode, 4", v, ok)
	}
	if _, ok := quietTail(ms[:tailSlices*minSliceIntervals-1]); ok {
		t.Error("quietTail sliced a pass with fewer than ten intervals a slice")
	}
	if _, ok := quietTail(make([]float64, minTimedIntervals)); !ok {
		t.Errorf("a time-bounded pass of %d intervals is too short for quietTail", minTimedIntervals)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) ==
// [2.75, 5.5, 8.25]; quantiles([3,1,4,1,5,9,2,6], n=4) sorted input
// [1,1,2,3,4,5,6,9] == [1.25, 3.5, 5.75].
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles(1..10) = %v", got)
	}
	got = quartiles([]float64{1, 1, 2, 3, 4, 5, 6, 9})
	if got != [3]float64{1.25, 3.5, 5.75} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{id: 1, name: "interval", start: 0, end: 10},
		// Two overlapping children cover [1,6]; a third covers [8,9].
		{id: 2, parent: 1, name: "a", start: 1, end: 5},
		{id: 3, parent: 1, name: "b", start: 3, end: 6},
		{id: 4, parent: 1, name: "c", start: 8, end: 9},
		// A grandchild is its parent's business, not the root's.
		{id: 5, parent: 2, name: "a.1", start: 2, end: 4},
		// A child running past its parent is clipped to it.
		{id: 6, name: "interval", start: 20, end: 30},
		{id: 7, parent: 6, name: "late", start: 28, end: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 4, 2: 2, 3: 3, 4: 1, 5: 2, 6: 8, 7: 7} {
		if got := self[id]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self time of span %d = %g, want %g", id, got, want)
		}
	}
}

func TestSpanRecorderRoundTrip(t *testing.T) {
	var none *spanRec
	if none.newID() != 0 || none.interval() != 0 || none.spans() != nil || none.dropped() != 0 {
		t.Fatal("a nil recorder must record nothing")
	}
	none.emit(1, "x", layerBench, tidDriver, 0, 0, time.Now(), time.Now())

	tr := newSpanRec()
	root := tr.beginInterval()
	t0 := time.Now()
	kid := tr.span("kid", layerCtrl, 7, tr.interval(), t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.emit(root, "interval", layerBench, tidDriver, 7, 0, t0, t0.Add(5*time.Millisecond))
	spans := tr.spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if s := spans[0]; s.id != root || s.name != "interval" || s.iv != 7 || s.parent != 0 || math.Abs(s.dur()-0.005) > 1e-9 {
		t.Errorf("root decoded as %+v", s)
	}
	if s := spans[1]; s.id != kid || s.parent != root || s.layer != layerCtrl || math.Abs(s.dur()-0.002) > 1e-9 {
		t.Errorf("child decoded as %+v", s)
	}
	path, err := tr.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) < 2 {
		t.Fatalf("exported trace unreadable: %v (%d events)", err, len(doc.TraceEvents))
	}
}

func TestSettleTracker(t *testing.T) {
	var s settleTracker
	// over, over, settled, over, settled: longest over-cap run is 2.
	for _, c := range []struct {
		sum, cap float64
		run      int
	}{{110, 100, 1}, {105, 100, 2}, {100, 100, 0}, {100 + 1e-9, 100, 0}, {101, 100, 1}, {90, 100, 0}} {
		if got := s.note(c.sum, c.cap); got != c.run {
			t.Errorf("note(%g, %g) = %d, want %d", c.sum, c.cap, got, c.run)
		}
	}
	if s.max != 2 {
		t.Errorf("cap_settle_iv = %d, want 2", s.max)
	}
}

// smokePlan is the 1/100-scale plan of a workload.
func smokePlan(sp spec, seed int64, traced bool) plan {
	return plan{Workload: sp.name, Seed: seed, Intervals: max(sp.nominal/100, 5), Setups: 1, Smoke: true, Trace: traced}
}

// Same seed, same inputs — and a different seed, different ones.
func TestSameSeedSameInputDigest(t *testing.T) {
	ctx := context.Background()
	for _, sp := range specs {
		digests := map[int64][]string{}
		for _, seed := range []int64{3, 3, 4} {
			r, err := runUntraced(ctx, sp, smokePlan(sp, seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", sp.name, seed, err)
			}
			if !r.Correct {
				t.Fatalf("%s seed %d invalid: %v", sp.name, seed, r.Problems)
			}
			digests[seed] = append(digests[seed], r.InputDigest+"/"+r.OutcomeDigest)
		}
		if a := digests[3]; a[0] != a[1] {
			t.Errorf("%s: seed 3 gave digests %s then %s", sp.name, a[0], a[1])
		}
		if digests[3][0] == digests[4][0] {
			t.Errorf("%s: seeds 3 and 4 gave the same digests %s", sp.name, digests[3][0])
		}
	}
}

// The shadow DP, fed exactly the curves the coordinator scraped, must
// reproduce the granted budgets bit for bit — incremental and full.
func TestShadowDPMatchesGrantedBudgets(t *testing.T) {
	sp, _ := findSpec("flat-learn-128")
	w, err := sp.build(5, size{smoke: true, window: sp.window}, newSpanRec())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var p pass
	if err := measure(context.Background(), w, &p, 0, 25, 0, nil); err != nil {
		t.Fatal(err)
	}
	o, err := w.finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	fw := w.(*flatWorkload)
	if fw.dp.intervals != 25 || fw.dp.mismatch != "" {
		t.Fatalf("shadow DP ran on %d of 25 intervals, mismatch %q", fw.dp.intervals, fw.dp.mismatch)
	}
	if got := o.layer["cluster.curves_changed"]; got != learnSmokeLearners {
		t.Errorf("%g curves changed per interval, want the %d learners", got, learnSmokeLearners)
	}
	// And the check has teeth: a corrupted grant is caught.
	fw.res.Budgets[0] += 2
	fw.shadowDP()
	if fw.dp.mismatch == "" {
		t.Error("a corrupted budget passed the shadow DP comparison")
	}
}

// All four workloads, untraced and traced, at 1/100 scale in under ten
// seconds, each printing every metric of its table.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	ctx := context.Background()
	for _, sp := range specs {
		r, err := runUntraced(ctx, sp, smokePlan(sp, 1, false))
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s untraced: failed=%d problems=%v", sp.name, r.Failed, r.Problems)
		}
		if len(r.Metrics) != len(e2eDefs) {
			t.Fatalf("%s: %d end-to-end metrics, want %d", sp.name, len(r.Metrics), len(e2eDefs))
		}
		for i, d := range e2eDefs {
			m := r.Metrics[i]
			if m.Name != d.name || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %d is %+v, want a positive %s in %s", sp.name, i, m, d.name, d.unit)
			}
		}
		tr, err := runTraced(ctx, sp, smokePlan(sp, 1, true), t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !tr.Correct {
			t.Errorf("%s traced: problems=%v", sp.name, tr.Problems)
		}
		if len(tr.Metrics) != len(layerDefs) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", sp.name, len(tr.Metrics), len(layerDefs))
		}
		if tr.TracePath == "" {
			t.Errorf("%s traced: no trace written", sp.name)
		}
		if a := tr.value("telemetry.attributed_frac"); math.Abs(a-1) > attributionTol {
			t.Errorf("%s traced: top-level self times sum to %.3f of the interval time", sp.name, a)
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run of all four workloads took %v, want under 10 s", d)
	}
}

// A workload that trips a gate is reported failed, not averaged.
func TestGateFailureIsReported(t *testing.T) {
	sp, _ := findSpec("flat-1k")
	w, err := sp.build(1, size{smoke: true, window: sp.window}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	fw := w.(*flatWorkload)
	var p pass
	if err := measure(context.Background(), w, &p, 0, 6, 0, nil); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("a healthy fleet failed %d intervals: %s", p.failed, p.firstFail)
	}
	// Hold the fleet to a cap below what it enforces: the first
	// fleetLeaseIv intervals are lease grace, the next one fails.
	fw.res.CapW = float64(flat1kSmokeAgents) * 40
	for i := 0; i < fleetLeaseIv; i++ {
		if err := fw.check(6 + i); err != nil {
			t.Fatalf("over-cap interval %d inside the lease grace failed: %v", i, err)
		}
	}
	if err := fw.check(6 + fleetLeaseIv); err == nil {
		t.Error("caps above the cluster cap past the lease grace raised no failure")
	}
}

func TestContractLineShape(t *testing.T) {
	r := &report{Correct: true, Attempted: 10, Metrics: []metric{{"interval_p50_ms", 1.5, "ms"}}}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	if !strings.Contains(string(line["metrics"]), `"interval_p50_ms":{"value":1.5,"unit":"ms"}`) {
		t.Errorf("metrics rendered as %s", line["metrics"])
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables in this package.
func benchmarkJSON(t *testing.T) []byte {
	t.Helper()
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: benchRunSeconds}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", sp.name, len(sp.why))
		}
		doc.Workloads = append(doc.Workloads, wl{sp.name, sp.why})
	}
	setup := false
	for _, d := range e2eDefs {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range layerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better()})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// BENCHMARK.json at the repo root is generated from the tables in this
// package: `go test -run BenchmarkJSON -update` rewrites it.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is out of date with the tables in bench/; run `go test -run BenchmarkJSON -update` in bench/")
	}
}
