package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"powerstruggle/internal/accountant"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	wl "powerstruggle/internal/workload"
)

// server-churn: one mediated server, the paper's own loop. A closed
// population of jobs churns through a two-slot server whose cap steps
// through 100→80→90→70 W: whenever fewer than churnPopulation jobs are
// in the system (running or queued) a new one arrives within the next
// second, so both slots stay busy and one job waits — about two
// arrivals and two departures a minute at the performance the caps
// allow. Applications are drawn in seeded shuffles of the whole library
// and job lengths uniformly, so every seed sees the same mix of work
// and only its order differs. One interval is one simulated second,
// Sim.Run(1).
const (
	churnPopulation = 3
	churnJobMinS    = 15.0
	churnJobMaxS    = 45.0
	churnCapEveryS  = 30
	churnWarmupIv   = 60
	churnReallocS   = 0.8
	// churnGraceS is how long after a trigger (E1–E4) grid draw may sit
	// above the cap: the 0.8 s re-allocation window plus actuation.
	churnGraceS = 1.5
	// churnDrainEvery bounds how often the bounded sample and event
	// logs are read out: 256 intervals of 10 samples stay well inside
	// the 4096-entry log.
	churnDrainEvery = 256
	// churnMaxWaiting is the queue depth past which arrivals have
	// outrun the two-slot server and the run no longer measures a
	// steady loop. The closed population keeps it at one.
	churnMaxWaiting = 8
)

var churnCapsW = []float64{100, 80, 90, 70}

type churnWorkload struct {
	hw   simhw.Config
	lib  *wl.Library
	apps []*wl.Profile
	dev  *esd.Device
	sim  *accountant.Sim
	rng  *rand.Rand
	tr   *spanRec

	// Deterministic metrics cover simulated time (winLo, winHi].
	winLo, winHi float64
	// now is the simulated second the next interval starts at.
	now    int
	deck   []int // indices into apps not yet dealt from the current shuffle
	inputs digest

	// Drain state: samples and events newer than these have not been
	// processed yet.
	lastSampleT float64
	eventsSeen  int
	triggers    []float64 // event times, ascending
	overCap     int       // samples over the cap outside every grace window
	firstOver   string
	perfSum     float64
	perfN       int
	socMin      float64
	events      map[accountant.EventKind]int
	outcomes    digest
	admitted    map[string]*wl.Profile
	intervals   int
	// Traced pass: the last Sim.Run's span, and the event count before
	// it (a grown log means the second re-planned).
	runStart, runEnd time.Time
	eventTotal       int
}

func buildChurn(seed int64, sz size, tr *spanRec) (workload, error) {
	hw := simhw.DefaultConfig()
	lib, err := wl.NewLibrary(hw)
	if err != nil {
		return nil, err
	}
	dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if err != nil {
		return nil, err
	}
	sim, err := accountant.NewSim(accountant.Config{
		HW: hw, Policy: policy.AppResESDAware, Library: lib,
		InitialCapW: churnCapsW[0], Device: dev, ReallocSeconds: churnReallocS,
	})
	if err != nil {
		return nil, err
	}
	w := &churnWorkload{
		hw: hw, lib: lib, apps: lib.Apps(), dev: dev, sim: sim, tr: tr,
		rng:         rand.New(rand.NewSource(seed)),
		inputs:      newDigest(),
		outcomes:    newDigest(),
		lastSampleT: math.Inf(-1),
		socMin:      1,
		events:      make(map[accountant.EventKind]int),
		admitted:    make(map[string]*wl.Profile),
		winLo:       churnWarmupIv,
		winHi:       float64(churnWarmupIv + sz.window),
	}
	// Warm-up: untimed intervals so the measured phase starts on a
	// loaded server, not an empty one.
	for i := 0; i < churnWarmupIv; i++ {
		if err := w.feed(); err != nil {
			return nil, err
		}
		if err := sim.Run(1); err != nil {
			return nil, fmt.Errorf("server-churn warm-up: %w", err)
		}
		w.now++
	}
	w.drain()
	w.eventTotal = w.eventsSeen
	return w, nil
}

// feed schedules the arrivals and cap change due within the next
// simulated second — never further ahead, so the accountant's pending
// lists stay short (it scans them every 10 ms step) and everything fed
// has been consumed by the time the interval returns.
func (w *churnWorkload) feed() error {
	for n := w.sim.Executor().Apps() + w.sim.Waiting(); n < churnPopulation; n++ {
		if len(w.deck) == 0 {
			w.deck = w.rng.Perm(len(w.apps))
		}
		p := w.apps[w.deck[0]]
		w.deck = w.deck[1:]
		jobS := churnJobMinS + w.rng.Float64()*(churnJobMaxS-churnJobMinS)
		at := float64(w.now) + w.rng.Float64()
		if err := w.sim.AddArrival(at, p, p.NoCapRate(w.hw)*jobS); err != nil {
			return err
		}
		w.admitted[p.Name] = p
		if at <= w.winHi {
			w.inputs.f64(at)
			w.inputs.str(p.Name)
			w.inputs.f64(jobS)
		}
	}
	if w.now > 0 && w.now%churnCapEveryS == 0 {
		capW := churnCapsW[(w.now/churnCapEveryS)%len(churnCapsW)]
		if err := w.sim.AddCapChange(float64(w.now), capW); err != nil {
			return err
		}
		if float64(w.now) <= w.winHi {
			w.inputs.f64(float64(w.now))
			w.inputs.f64(capW)
		}
	}
	return nil
}

func (w *churnWorkload) prepare(int) error { return w.feed() }

func (w *churnWorkload) step(_ context.Context, i int) error {
	if w.tr != nil {
		w.runStart = time.Now()
	}
	err := w.sim.Run(1)
	if w.tr != nil {
		w.runEnd = time.Now()
	}
	w.now++
	w.intervals++
	return err
}

func (w *churnWorkload) check(i int) error {
	if w.tr != nil {
		// Events() copies the whole log, so the steady/re-plan split is
		// taken here, outside the timed step, and only when tracing.
		total := len(w.sim.Events()) + w.sim.EventsDropped()
		name := "sim.run.steady"
		if total != w.eventTotal {
			name = "sim.run.replan"
		}
		w.eventTotal = total
		w.tr.span(name, layerAccountant, i, w.tr.interval(), w.runStart, w.runEnd)
	}
	if (i+1)%churnDrainEvery != 0 {
		return nil
	}
	before := w.overCap
	w.drain()
	if w.overCap > before {
		return fmt.Errorf("grid draw above the cap outside the %.1f s re-plan grace: %s", churnGraceS, w.firstOver)
	}
	return nil
}

// drain reads out the bounded event and sample logs. Events first: a
// sample is excused only by a trigger at or before it.
func (w *churnWorkload) drain() {
	evs := w.sim.Events()
	total := len(evs) + w.sim.EventsDropped()
	fresh := total - w.eventsSeen
	if fresh > len(evs) {
		fresh = len(evs)
	}
	for _, ev := range evs[len(evs)-fresh:] {
		w.triggers = append(w.triggers, ev.T)
		w.events[ev.Kind]++
		if ev.T > w.winLo && ev.T <= w.winHi {
			w.outcomes.f64(ev.T)
			w.outcomes.int(int(ev.Kind))
			w.outcomes.str(ev.App)
			w.outcomes.f64(ev.CapW)
		}
	}
	w.eventsSeen = total
	ti := 0
	for _, s := range w.sim.Samples() {
		if s.T <= w.lastSampleT {
			continue
		}
		w.lastSampleT = s.T
		if s.SoC < w.socMin {
			w.socMin = s.SoC
		}
		if s.T > w.winLo && s.T <= w.winHi {
			for _, a := range s.Apps {
				w.perfSum += a.Perf
				w.perfN++
			}
			w.outcomes.f64(s.GridW)
		}
		if s.GridW <= s.CapW+capEps {
			continue
		}
		for ti+1 < len(w.triggers) && w.triggers[ti+1] <= s.T {
			ti++
		}
		if ti < len(w.triggers) && w.triggers[ti] <= s.T && s.T-w.triggers[ti] <= churnGraceS {
			continue
		}
		w.overCap++
		if w.firstOver == "" {
			w.firstOver = fmt.Sprintf("t=%.2f s grid %.1f W cap %.1f W", s.T, s.GridW, s.CapW)
		}
	}
	// Keep only triggers a later sample could still be excused by.
	if n := len(w.triggers); n > 64 {
		w.triggers = append(w.triggers[:0], w.triggers[n-64:]...)
	}
}

func (w *churnWorkload) finish() (outcome, error) {
	w.drain()
	o := outcome{
		window:        min(int(w.winHi-w.winLo), w.intervals),
		inputDigest:   w.inputs.sum(),
		outcomeDigest: w.outcomes.sum(),
		layer:         map[string]float64{},
	}
	if w.perfN > 0 {
		o.perfFrac = w.perfSum / float64(w.perfN)
	}
	perKilo := 1000 / float64(churnWarmupIv+w.intervals)
	for k, name := range map[accountant.EventKind]string{
		accountant.EvCapChange:   "accountant.e1_cap_per_kilo_iv",
		accountant.EvArrival:     "accountant.e2_arrival_per_kilo_iv",
		accountant.EvDeparture:   "accountant.e3_departure_per_kilo_iv",
		accountant.EvPhaseChange: "accountant.e4_drift_per_kilo_iv",
	} {
		o.layer[name] = float64(w.events[k]) * perKilo
		o.layer["accountant.events_per_kilo_iv"] += float64(w.events[k]) * perKilo
	}
	o.layer["esd.soc_min"] = w.socMin
	o.layer["esd.full_cycles"] = w.dev.EquivalentFullCycles()
	if w.overCap > 0 {
		return o, fmt.Errorf("server-churn: %d samples above the cap outside the re-plan grace (first: %s)", w.overCap, w.firstOver)
	}
	if n := w.sim.Waiting(); n > churnMaxWaiting {
		return o, fmt.Errorf("server-churn: %d applications waiting at the end; arrivals outran the two-slot server", n)
	}
	if o.perfFrac <= 0 {
		return o, fmt.Errorf("server-churn: no application performance sampled")
	}
	return o, nil
}

func (w *churnWorkload) close() {}
