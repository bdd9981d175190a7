package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/telemetry"
)

// flatWorkload is one flat coordinator over one listener — the shape of
// both flat-1k and flat-learn-128, which differ in members, strategy
// and cap schedule.
type flatWorkload struct {
	name   string
	tr     *spanRec
	lc     *layerCounters
	hub    *telemetry.Hub
	slice  *fleetSlice
	coord  *ctrlplane.Coordinator
	rng    *rand.Rand
	window int

	// capAt is the cluster cap of measured interval i.
	capAt func(i int) float64
	// demand members (flat-1k); nil on flat-learn-128.
	backends []*demandBackend
	// learners (flat-learn-128) are refreshed every interval so their
	// noisy rate is re-sampled.
	learners []int
	// uncapped is Σ perf with no cap at all, the perf_frac denominator;
	// drift keeps it current on demand fleets.
	uncapped float64

	t        float64 // trace time of the next interval
	res      ctrlplane.StepResult
	prevCap  float64
	inputs   digest
	outcomes digest
	settle   settleTracker
	perfSum  float64
	perfN    int
	done     int

	// Traced pass: the shadow DP fed the scraped curves.
	shadow    cluster.Apportioner
	prevCurve [][]cluster.CapPoint
	dp        dpShadow
}

// dpShadow accumulates the shadow apportioner's per-interval readings.
type dpShadow struct {
	incMs, fullMs   []float64
	layers, changed int
	intervals       int
	mismatch        string
}

func (w *flatWorkload) warm(ctx context.Context, capW float64) error {
	res, err := w.coord.Step(ctx, w.t, capW)
	w.t += fleetIntervalS
	if err != nil {
		return err
	}
	return checkStep(res)
}

func (w *flatWorkload) prepare(i int) error {
	hashed := i < w.window
	if w.backends != nil {
		d, err := drift(w.rng, w.backends, w.slice.agents, w.inputs, hashed)
		if err != nil {
			return err
		}
		w.uncapped += d
	}
	for _, j := range w.learners {
		if err := w.slice.agents[j].Refresh(); err != nil {
			return err
		}
	}
	if hashed {
		w.inputs.f64(w.capAt(i))
	}
	return nil
}

func (w *flatWorkload) step(ctx context.Context, i int) error {
	capW := w.capAt(i)
	var err error
	if w.tr == nil {
		w.res, err = w.coord.Step(ctx, w.t, capW)
	} else {
		name := "coordinator.step.assign"
		if capW == w.prevCap {
			name = "coordinator.step.renew"
		}
		t0 := time.Now()
		w.res, err = w.coord.Step(ctx, w.t, capW)
		w.tr.span(name, layerCtrl, i, w.tr.interval(), t0, time.Now())
	}
	w.prevCap = capW
	w.t += fleetIntervalS
	return err
}

func (w *flatWorkload) check(i int) error {
	w.done++
	if err := checkStep(w.res); err != nil {
		return err
	}
	capSum, perf := fleetSums(w.slice.agents)
	over := w.settle.note(capSum, w.res.CapW)
	if i < w.window {
		w.perfSum += perf / w.uncapped
		w.perfN++
		for _, b := range w.res.Budgets {
			w.outcomes.f64(b)
		}
	}
	if w.tr != nil {
		w.shadowDP()
	}
	if over > fleetLeaseIv {
		return fmt.Errorf("enforced caps sum to %.3f W above the %.3f W cap for %d intervals, past the %d-interval lease grace",
			capSum, w.res.CapW, over, fleetLeaseIv)
	}
	return nil
}

// shadowDP replays the interval's scraped curves and cap through the
// apportioner's public functions — incrementally and in full — and
// holds both to the budgets the coordinator granted, bit for bit.
func (w *flatWorkload) shadowDP() {
	if w.backends != nil {
		return // equal apportioning: no DP ran
	}
	curves := make([][]cluster.CapPoint, len(w.slice.timed))
	for j, te := range w.slice.timed {
		curves[j] = te.lastReport().UtilityCurve
		if len(curves[j]) == 0 {
			return // an even-share member: the DP saw a different problem
		}
	}
	if w.prevCurve != nil {
		for j := range curves {
			if !sameCurve(w.prevCurve[j], curves[j]) {
				w.dp.changed++
			}
		}
	}
	if w.prevCurve == nil {
		// Give the shadow cache the coordinator's high-water mark (the
		// uncapped warm-up), or its rebuilds would span fewer levels
		// and read cheaper than the real ones.
		w.shadow.Apportion(float64(len(curves))*curveNamepW, curveFloorW, curves)
	}
	w.prevCurve = curves
	t0 := time.Now()
	inc, _, _ := w.shadow.Apportion(w.res.CapW, curveFloorW, curves)
	t1 := time.Now()
	full, _, _ := cluster.ApportionCurves(w.res.CapW, curveFloorW, curves)
	t2 := time.Now()
	w.dp.incMs = append(w.dp.incMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	w.dp.fullMs = append(w.dp.fullMs, float64(t2.Sub(t1).Nanoseconds())/1e6)
	w.dp.layers += w.shadow.LastRecomputed()
	w.dp.intervals++
	for j := range inc {
		if w.dp.mismatch == "" && (inc[j] != w.res.Budgets[j] || full[j] != w.res.Budgets[j]) {
			w.dp.mismatch = fmt.Sprintf("member %d: granted %g W, shadow incremental %g W, shadow full %g W",
				j, w.res.Budgets[j], inc[j], full[j])
		}
	}
}

func sameCurve(a, b []cluster.CapPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *flatWorkload) finish() (outcome, error) {
	o := outcome{
		capSettleIv:   w.settle.max,
		window:        min(w.window, w.done),
		inputDigest:   w.inputs.sum(),
		outcomeDigest: w.outcomes.sum(),
		layer:         map[string]float64{},
	}
	if w.perfN > 0 {
		o.perfFrac = w.perfSum / float64(w.perfN)
	}
	n := float64(max(w.done, 1))
	st, ws := w.coord.Stats(), w.coord.WireStats()
	// Lifetime counters include set-up; per-interval figures divide by
	// every interval the coordinator drove.
	steps := float64(max(st.Steps+st.Observes, 1))
	o.layer["ctrlplane.batch_frames"] = float64(st.BatchFrames) / steps
	o.layer["ctrlplane.batched_ops"] = float64(st.BatchedOps) / steps
	o.layer["ctrlplane.conn_dials"] = float64(ws.BinaryDials)
	w.lc.fold(n, o.layer)
	if w.hub != nil {
		o.layer["ctrlplane.wire_bytes"] = wireBytes(w.hub) / steps
	}
	if w.dp.intervals > 0 {
		o.layer["cluster.dp_inc_ms"] = median(w.dp.incMs)
		o.layer["cluster.dp_full_ms"] = median(w.dp.fullMs)
		o.layer["cluster.dp_layers_recomputed"] = float64(w.dp.layers) / float64(w.dp.intervals)
		o.layer["cluster.curves_changed"] = float64(w.dp.changed) / float64(max(w.dp.intervals-1, 1))
	}
	if w.dp.mismatch != "" {
		return o, fmt.Errorf("%s: shadow DP disagrees with the granted budgets: %s", w.name, w.dp.mismatch)
	}
	if w.tr != nil && w.backends == nil && w.dp.intervals == 0 {
		return o, fmt.Errorf("%s: the shadow DP never ran: some member reported no curve", w.name)
	}
	for _, j := range w.learners {
		if c := w.slice.agents[j].LearnConfidence(); c < ctrlplane.DefaultCurveConfFloor {
			return o, fmt.Errorf("%s: learner %d ended at confidence %.2f, below the %.2f admission floor", w.name, j, c, ctrlplane.DefaultCurveConfFloor)
		}
	}
	if ws.BinaryDials > 4 {
		return o, fmt.Errorf("%s: coordinator dialed %d conns over one listener; the pool is not reusing", w.name, ws.BinaryDials)
	}
	return o, nil
}

func (w *flatWorkload) close() {
	if w.coord != nil {
		w.coord.Close()
	}
	w.slice.close()
}

// newFlat wires a coordinator over the given member configs.
func newFlat(name string, seed int64, sz size, tr *spanRec, cfgs []ctrlplane.AgentConfig, strategy ctrlplane.Strategy) (*flatWorkload, error) {
	w := &flatWorkload{
		name: name, tr: tr, window: sz.window,
		rng:    rand.New(rand.NewSource(seed)),
		inputs: newDigest(), outcomes: newDigest(),
	}
	if tr != nil {
		w.lc = &layerCounters{keepReports: strategy == ctrlplane.StrategyUtility}
	}
	if sz.hub {
		w.hub = telemetry.New(1024)
	}
	var err error
	if w.slice, err = startSlice(cfgs, w.lc); err != nil {
		return nil, err
	}
	w.coord, err = ctrlplane.New(ctrlplane.Config{
		Agents:      w.slice.refs,
		Strategy:    strategy,
		LeaseIv:     fleetLeaseIv,
		IntervalS:   fleetIntervalS,
		MaxInFlight: runtime.NumCPU(),
		Seed:        seed,
		Telemetry:   w.hub,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// flat-1k: 1000 demand-driven agents behind one listener, equal
// apportioning. The cap moves every second interval, so exactly half
// the intervals renew every lease and half re-assign every budget.
const (
	flat1kAgents      = 1000
	flat1kSmokeAgents = 100
)

func buildFlat1k(seed int64, sz size, tr *spanRec) (workload, error) {
	n := flat1kAgents
	if sz.smoke {
		n = flat1kSmokeAgents
	}
	gen := rand.New(rand.NewSource(seed ^ 0x1f1a7))
	cfgs := make([]ctrlplane.AgentConfig, n)
	backends := make([]*demandBackend, n)
	inputs := newDigest()
	for i := range cfgs {
		backends[i] = &demandBackend{demandW: drawDemand(gen)}
		inputs.f64(backends[i].demandW)
		cfgs[i] = ctrlplane.AgentConfig{ID: i, Backend: backends[i], Version: "psperf"}
	}
	w, err := newFlat("flat-1k", seed, sz, tr, cfgs, ctrlplane.StrategyEqual)
	if err != nil {
		return nil, err
	}
	w.backends, w.inputs = backends, inputs
	for _, b := range backends {
		w.uncapped += b.uncappedPerf()
	}
	w.capAt = func(i int) float64 { return float64(n) * (50 + float64((i/2)%6)) }
	// Warm-up: the rehydrating first interval and the first assign,
	// then one renewal, so the measured phase starts in steady state.
	ctx := context.Background()
	for k := 0; k < 3; k++ {
		if err := w.warm(ctx, w.capAt(0)); err != nil {
			w.close()
			return nil, fmt.Errorf("flat-1k warm-up: %w", err)
		}
	}
	w.prevCap = w.capAt(0)
	w.lc.reset()
	return w, nil
}

// flat-learn-128: 128 agents with saturating 41-point curves under
// utility apportioning; 8 of them learn their curve online from noisy
// rates, so 8 curves at unsorted positions change every interval and
// the apportioning DP, not the wire, is the interval.
const (
	learnAgents        = 128
	learnLearners      = 8
	learnSmokeAgents   = 32
	learnSmokeLearners = 2
	learnNoise         = 0.02
	// learnEpsilon and learnWarmupIv: with 41 grid cells the admission
	// floor needs 31 observed. A probe below the grant fails the next
	// renewal, and the fresh assign that follows draws the probe again,
	// so an interval observes a new cell with probability epsilon². At
	// 0.9 that is 0.81: 70 intervals observe 41 of 41 with five standard
	// deviations to spare, and the learners enter the measured phase
	// converged — no more probes, but every noisy sample still moves
	// the cell mean under the grant, so all 8 curves change each
	// interval.
	learnEpsilon  = 0.9
	learnWarmupIv = 70
)

func buildFlatLearn(seed int64, sz size, tr *spanRec) (workload, error) {
	n, k := learnAgents, learnLearners
	if sz.smoke {
		n, k = learnSmokeAgents, learnSmokeLearners
	}
	gen := rand.New(rand.NewSource(seed ^ 0x1ea42))
	// One learner per stratum of n/k members at a seeded offset, the
	// first pinned to member 0. The apportioner's prefix cache rebuilds
	// from the first changed curve, so the lowest learner index sets
	// the interval's cost: left to the seed it would swing p50 by a
	// quarter from one seed to the next.
	isLearner := map[int]bool{0: true}
	for s := 1; s < k; s++ {
		isLearner[s*(n/k)+gen.Intn(n/k)] = true
	}
	inputs := newDigest()
	cfgs := make([]ctrlplane.AgentConfig, n)
	var learners []int
	for i := range cfgs {
		b := &curveBackend{tau: 25 + 50*gen.Float64()}
		inputs.f64(b.tau)
		cfgs[i] = ctrlplane.AgentConfig{ID: i, Backend: b, Version: "psperf"}
		if isLearner[i] {
			b.noise = learnNoise
			b.rng = rand.New(rand.NewSource(seed<<8 + int64(i)))
			cfgs[i].Learn = &cf.OnlineConfig{Epsilon: learnEpsilon, Seed: seed<<8 + int64(i)}
			learners = append(learners, i)
			inputs.int(i)
		}
	}
	w, err := newFlat("flat-learn-128", seed, sz, tr, cfgs, ctrlplane.StrategyUtility)
	if err != nil {
		return nil, err
	}
	w.learners, w.inputs = learners, inputs
	w.uncapped = float64(n) // every curve is normalized to 1 at nameplate
	w.capAt = func(i int) float64 { return float64(n) * (85 + float64(i%6)) }
	// Warm-up at an uncapped cluster cap: every learner is granted its
	// nameplate, so probes can reach the whole grid.
	ctx := context.Background()
	for i := 0; i < learnWarmupIv; i++ {
		for _, j := range learners {
			if err := w.slice.agents[j].Refresh(); err != nil {
				w.close()
				return nil, err
			}
		}
		if err := w.warm(ctx, float64(n)*curveNamepW); err != nil {
			w.close()
			return nil, fmt.Errorf("flat-learn-128 warm-up: %w", err)
		}
	}
	for _, j := range learners {
		if c := w.slice.agents[j].LearnConfidence(); c < ctrlplane.DefaultCurveConfFloor {
			w.close()
			return nil, fmt.Errorf("flat-learn-128: learner %d reached confidence %.2f after warm-up, below the %.2f admission floor",
				j, c, ctrlplane.DefaultCurveConfFloor)
		}
	}
	w.prevCap = float64(n) * curveNamepW
	w.lc.reset()
	return w, nil
}
