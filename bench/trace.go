package main

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
)

// layerDef is one per-layer metric of the traced pass. Every traced run
// prints every one of them; a metric whose layer the workload does not
// exercise reads 0.
type layerDef struct{ name, unit string }

// better is the direction BENCHMARK.json records: every row of the
// table is a cost or a count of work, except these two.
func (d layerDef) better() string {
	switch d.name {
	case "esd.soc_min", "telemetry.attributed_frac":
		return "higher"
	}
	return "lower"
}

var layerDefs = []layerDef{
	{"accountant.steady_interval_p50_ms", "ms"},
	{"accountant.replan_interval_p50_ms", "ms"},
	{"accountant.replan_interval_share", "ratio"},
	{"accountant.events_per_kilo_iv", "count"},
	{"accountant.e1_cap_per_kilo_iv", "count"},
	{"accountant.e2_arrival_per_kilo_iv", "count"},
	{"accountant.e3_departure_per_kilo_iv", "count"},
	{"accountant.e4_drift_per_kilo_iv", "count"},
	{"simhw.step_ns", "ns"},
	{"simhw.steps_per_interval", "count"},
	{"coordinator.exec_step_us", "us"},
	{"coordinator.esd_schedule_us", "us"},
	{"workload.optimal_curve_us", "us"},
	{"allocator.apportion_us", "us"},
	{"policy.plan_us", "us"},
	{"esd.soc_min", "ratio"},
	{"esd.full_cycles", "count"},
	{"ctrlplane.step_p50_ms", "ms"},
	{"ctrlplane.renew_step_p50_ms", "ms"},
	{"ctrlplane.assign_step_p50_ms", "ms"},
	{"ctrlplane.step_self_ms", "ms"},
	{"ctrlplane.member_handler_us", "us"},
	{"ctrlplane.member_handler_ms_per_iv", "ms"},
	{"ctrlplane.scrapes", "count"},
	{"ctrlplane.assigns", "count"},
	{"ctrlplane.renews", "count"},
	{"ctrlplane.backend_apply_us", "us"},
	{"ctrlplane.backend_applies", "count"},
	{"ctrlplane.batch_frames", "count"},
	{"ctrlplane.batched_ops", "count"},
	{"ctrlplane.conn_dials", "count"},
	{"ctrlplane.wire_bytes", "B"},
	{"ctrlplane.frame_codec_ns_per_kb", "ns/KiB"},
	{"cluster.dp_inc_ms", "ms"},
	{"cluster.dp_full_ms", "ms"},
	{"cluster.dp_layers_recomputed", "count"},
	{"cluster.curves_changed", "count"},
	{"cf.observe_ns", "ns"},
	{"cf.curve_us", "us"},
	{"ctrlplane.shard_step_p50_ms", "ms"},
	{"ctrlplane.shard_observe_p50_ms", "ms"},
	{"ctrlplane.shard_steps_sum_ms", "ms"},
	{"ctrlplane.global_step_p50_ms", "ms"},
	{"ctrlplane.shard_report_us", "us"},
	{"ctrlplane.shard_budget_us", "us"},
	{"cluster.rollup_us", "us"},
	{"cluster.apportion_shards_us", "us"},
	{"cluster.rebalance_us", "us"},
	{"ctrlplane.tree_critical_path_p50_ms", "ms"},
	{"ctrlplane.tree_tax_x", "x"},
	{"ctrlplane.cap_settle_iv", "intervals"},
	{"telemetry.untraced_interval_p50_ms", "ms"},
	{"telemetry.traced_interval_p50_ms", "ms"},
	{"telemetry.trace_overhead_frac", "ratio"},
	{"telemetry.attributed_frac", "ratio"},
}

// How the traced run spends -seconds: an untraced reference pass on a
// plain build and the traced pass on a decorated build, interleaved in
// slices so that a drift in host speed lands on both alike; the rest
// goes to the shadow calls and the side runs.
const (
	tracedRefShare  = 0.3
	tracedPassShare = 0.4
	tracedSlices    = 4
	// traceOverheadMax flags traced numbers taken under heavy tracing.
	traceOverheadMax = 0.10
	// attributionTol is how far the top-level self times may sum from
	// the traced interval time.
	attributionTol = 0.10
	// wireMeterIv is how many intervals the hub-equipped side run
	// drives; frame sizes are fixed by the fleet's shape, so a few do.
	wireMeterIv = 8
)

// runTraced is the per-layer pass: an untraced reference and a traced
// pass in one process (their p50 difference is the tracing overhead),
// then the shadow calls that replay captured inputs through single
// layers, and a short hub-equipped run that meters the wire.
func runTraced(ctx context.Context, sp spec, pl plan, outDir string) (*report, error) {
	r := &report{Plan: pl, Host: thisHost(), Correct: true}
	sz := size{smoke: pl.Smoke, window: sp.window}
	r.CalibBeforeMs = calibLoop(pl.Smoke)
	vals := map[string]float64{}
	tr := newSpanRec()
	if done, err := tracedPasses(ctx, sp, pl, sz, tr, r, vals); err != nil || !done {
		return r, err
	}
	// The side runs start from a collected heap, as a fresh process
	// would: the traced fleets are closed by now.
	debug.FreeOSMemory()
	if sp.wire {
		if err := meterWire(ctx, sp, pl, sz, vals); err != nil {
			r.problem("wire meter run: %v", err)
		}
	}
	if sp.name == "tree-1k-8" {
		if err := treeTax(ctx, pl, sz, vals); err != nil {
			r.problem("tree tax reference: %v", err)
		}
	}
	if outDir != "" {
		var err error
		if r.TracePath, err = tr.write(outDir, sp.name); err != nil {
			return nil, err
		}
	}
	r.CalibAfterMs = calibLoop(pl.Smoke)
	r.Noisy = noisy(r.CalibBeforeMs, r.CalibAfterMs)
	for _, d := range layerDefs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("%s is %v", d.name, v)
			v = 0
		}
		r.Metrics = append(r.Metrics, metric{d.name, v, d.unit})
	}
	for k := range vals {
		if !isLayerDef(k) {
			r.problem("metric %s is not in the per-layer table", k)
		}
	}
	// Flags, not failures: the traced numbers stand, with a warning.
	if f := vals["telemetry.trace_overhead_frac"]; f > traceOverheadMax {
		r.Warnings = append(r.Warnings, fmt.Sprintf("tracing overhead %.1f %% exceeds %.0f %%: traced numbers are inflated", 100*f, 100*traceOverheadMax))
	}
	if a := vals["telemetry.attributed_frac"]; math.Abs(a-1) > attributionTol {
		r.Warnings = append(r.Warnings, fmt.Sprintf("top-level self times sum to %.1f %% of the traced interval time", 100*a))
	}
	return r, nil
}

// tracedPasses builds the workload plain and decorated, measures the
// two in interleaved slices, runs the gates, and fills vals with every
// metric that needs the fleets alive (spans, member counters, shadow
// calls). Both fleets are closed when it returns. done is false when a
// pass aborted and there is nothing to report but r's problems.
func tracedPasses(ctx context.Context, sp spec, pl plan, sz size, tr *spanRec, r *report, vals map[string]float64) (done bool, err error) {
	sliceIv := 0
	if pl.Intervals > 0 {
		sliceIv = max(pl.Intervals/5/tracedSlices, 1)
	}
	ref, err := sp.build(pl.Seed, sz, nil)
	if err != nil {
		return false, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	defer ref.close()
	w, err := sp.build(pl.Seed, sz, tr)
	if err != nil {
		return false, fmt.Errorf("%s traced set-up: %w", sp.name, err)
	}
	defer w.close()
	var refPass, p pass
	for k := 0; k < tracedSlices; k++ {
		if err := measure(ctx, ref, &refPass, pl.Seconds*tracedRefShare/tracedSlices, sliceIv, 0, nil); err != nil {
			r.fold(refPass)
			r.problem("untraced reference pass: %v", err)
			return false, nil
		}
		if err := measure(ctx, w, &p, pl.Seconds*tracedPassShare/tracedSlices, sliceIv, 0, tr); err != nil {
			r.fold(p)
			r.problem("%v", err)
			return false, nil
		}
	}
	r.fold(p)
	if _, err := ref.finish(); err != nil {
		r.problem("untraced reference pass: %v", err)
	}
	o, err := w.finish()
	if err != nil {
		r.problem("%v", err)
	}
	r.outcome(o, sp.window)
	for k, v := range o.layer {
		vals[k] = v
	}
	vals["ctrlplane.cap_settle_iv"] = float64(o.capSettleIv)

	untraced, traced := median(refPass.ms), median(p.ms)
	vals["telemetry.untraced_interval_p50_ms"] = untraced
	vals["telemetry.traced_interval_p50_ms"] = traced
	vals["telemetry.trace_overhead_frac"] = (traced - untraced) / untraced
	if d := tr.dropped(); d > 0 {
		r.problem("span ring dropped %d spans; the traced pass cannot be attributed", d)
	}
	spanMetrics(tr.spans(), vals)
	if err := shadow(sp.name, w, pl, vals); err != nil {
		r.problem("shadow calls: %v", err)
	}
	return true, nil
}

func isLayerDef(name string) bool {
	for _, d := range layerDefs {
		if d.name == name {
			return true
		}
	}
	return false
}

// spanMetrics derives the span-based per-layer metrics. The interval
// span is the root; its direct children are the calls the driver made
// into a layer. attributed_frac is Σ self time over the root and its
// children ÷ Σ root duration — 1 when the tree of spans accounts for
// the whole interval, less when children overlap or run past their
// parent.
func spanMetrics(spans []span, vals map[string]float64) {
	var measured []span
	for _, s := range spans {
		if s.iv >= 0 {
			measured = append(measured, s)
		}
	}
	self := selfTimes(measured)
	var rootS, selfS float64
	roots := map[int64]bool{}
	for _, s := range measured {
		if s.name == "interval" {
			roots[s.id] = true
			rootS += s.dur()
			selfS += self[s.id]
		}
	}
	for _, s := range measured {
		if roots[s.parent] {
			selfS += s.dur()
		}
	}
	if rootS > 0 {
		vals["telemetry.attributed_frac"] = selfS / rootS
	}
	named := func(names ...string) []float64 {
		return durationsMs(measured, func(s span) bool {
			for _, n := range names {
				if s.name == n {
					return true
				}
			}
			return false
		})
	}
	if steady, replan := named("sim.run.steady"), named("sim.run.replan"); len(steady)+len(replan) > 0 {
		vals["accountant.steady_interval_p50_ms"] = median(steady)
		vals["accountant.replan_interval_p50_ms"] = median(replan)
		vals["accountant.replan_interval_share"] = float64(len(replan)) / float64(len(steady)+len(replan))
	}
	if steps := named("coordinator.step.renew", "coordinator.step.assign"); len(steps) > 0 {
		vals["ctrlplane.step_p50_ms"] = median(steps)
		vals["ctrlplane.renew_step_p50_ms"] = median(named("coordinator.step.renew"))
		vals["ctrlplane.assign_step_p50_ms"] = median(named("coordinator.step.assign"))
		vals["ctrlplane.step_self_ms"] = mean(steps) - vals["ctrlplane.member_handler_ms_per_iv"] - vals["cluster.dp_inc_ms"]
	}
	if lead := named("shard.step"); len(lead) > 0 {
		vals["ctrlplane.shard_step_p50_ms"] = median(lead)
		vals["ctrlplane.shard_observe_p50_ms"] = median(named("shard.observe"))
		vals["ctrlplane.global_step_p50_ms"] = median(named("global.step"))
		// Per interval: the serial sum of node steps, and the critical
		// path a one-process-per-shard deployment would see.
		sum := map[int]float64{}
		slowest := map[int]float64{}
		global := map[int]float64{}
		for _, s := range measured {
			switch s.name {
			case "shard.step":
				sum[s.iv] += s.dur() * 1e3
				slowest[s.iv] = math.Max(slowest[s.iv], s.dur()*1e3)
			case "shard.observe":
				sum[s.iv] += s.dur() * 1e3
			case "global.step":
				global[s.iv] = s.dur() * 1e3
			}
		}
		var sums, crit []float64
		for iv, v := range sum {
			sums = append(sums, v)
			crit = append(crit, slowest[iv]+global[iv])
		}
		vals["ctrlplane.shard_steps_sum_ms"] = median(sums)
		vals["ctrlplane.tree_critical_path_p50_ms"] = median(crit)
		vals["ctrlplane.step_self_ms"] = mean(sums) + mean(named("global.step")) - vals["ctrlplane.member_handler_ms_per_iv"]
	}
}

// treeTax measures flat-1k's untraced interval on this host, in this
// process, and divides tree-1k-8's by it: the ROADMAP's two-tier tax.
// The tree's fleets must be closed and collected first — a flat fleet
// stepping beside 70 MiB of idle tree collects a third as often and
// reads a third faster than it does alone.
func treeTax(ctx context.Context, pl plan, sz size, vals map[string]float64) error {
	flat, ok := findSpec("flat-1k")
	if !ok {
		return fmt.Errorf("no flat-1k workload")
	}
	sz.window = flat.window
	w, err := flat.build(pl.Seed, sz, nil)
	if err != nil {
		return err
	}
	defer w.close()
	iv := 0
	if pl.Intervals > 0 {
		iv = max(pl.Intervals, 20)
	}
	var p pass
	if err := measure(ctx, w, &p, pl.Seconds*(1-tracedRefShare-tracedPassShare)/2, iv, 0, nil); err != nil {
		return err
	}
	if _, err := w.finish(); err != nil {
		return err
	}
	vals["ctrlplane.tree_tax_x"] = vals["telemetry.untraced_interval_p50_ms"] / median(p.ms)
	return nil
}

// meterWire drives a hub-equipped build of the workload for a few
// untimed intervals and reads the product's own wire-byte counter.
func meterWire(ctx context.Context, sp spec, pl plan, sz size, vals map[string]float64) error {
	sz.hub = true
	w, err := sp.build(pl.Seed, sz, nil)
	if err != nil {
		return err
	}
	defer w.close()
	var p pass
	if err := measure(ctx, w, &p, 0, wireMeterIv, 0, nil); err != nil {
		return err
	}
	o, err := w.finish()
	if err != nil {
		return err
	}
	vals["ctrlplane.wire_bytes"] = o.layer["ctrlplane.wire_bytes"]
	return nil
}
