package daemon

import (
	"context"
	"math"
	"testing"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
)

// learnLaws are the live daemons' true cap→heartbeat-rate laws in the
// learning drills: one saturates early (wants few watts), one is
// near-linear across the whole cap range (profits from every watt), so
// an apportioner that actually learned the curves splits the cluster
// cap visibly differently from an even share.
func learnLaws() []func(float64) float64 {
	return []func(float64) float64{
		func(c float64) float64 { return 40 * (1 - math.Exp(-c/30)) },
		func(c float64) float64 { return 25 * (1 - math.Exp(-c/160)) },
	}
}

// lawRates samples a rate law over the learnable cap grid.
func lawRates(grid []float64, law func(float64) float64) []float64 {
	rates := make([]float64, len(grid))
	for k, c := range grid {
		rates[k] = law(c)
	}
	return rates
}

// learnFleet is the learning drills' mixed fleet: two trace-replay
// agents plus two live daemons characterizing their mix online, all
// behind one shared binary listener.
type learnFleet struct {
	agents  []*ctrlplane.Agent
	daemons []*Daemon
	refs    []ctrlplane.AgentRef
	bsrv    *ctrlplane.BinaryServer
}

func (f *learnFleet) close() {
	if f.bsrv != nil {
		f.bsrv.Close()
	}
}

// memberCap reads the enforced cap of fleet member i.
func (f *learnFleet) memberCap(i int) float64 {
	if i < len(f.agents) {
		return f.agents[i].CapW()
	}
	return f.daemons[i-len(f.agents)].health().CapW
}

// startLearnFleet boots the mixed fleet: agents 0..1 replay the
// evaluator's trace, daemons 2..3 run on the injected wall clock and
// learn one rate law each from the samples the control loop produces.
// Every member gets its own probe seed so replays stay deterministic.
func startLearnFleet(t *testing.T, ev *cluster.Evaluator, clk *drillClock, lcfg cf.OnlineConfig) *learnFleet {
	t.Helper()
	f := &learnFleet{}
	endpoints := map[int]ctrlplane.CtrlEndpoint{}
	for i := 0; i < 2; i++ {
		a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{
			ID: i, Backend: ctrlplane.NewSimBackend(ev, i), Version: "test",
		})
		if err != nil {
			t.Fatal(err)
		}
		f.agents = append(f.agents, a)
		endpoints[i] = a
	}
	for j, law := range learnLaws() {
		d, err := New(Config{Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		lc := lcfg
		lc.Seed = lcfg.Seed + int64(j)
		law := law
		err = d.EnableCtrl(CtrlConfig{
			ServerID: 2 + j,
			Clock:    clk.now,
			Learn:    &lc,
			// The learning observable is the law evaluated at the enforced
			// cap — a deterministic heartbeat rate, so repeated samples of
			// one cell stay bitwise equal and a converged estimator's
			// empirical table reproduces the law's grid row exactly.
			LearnRateHz: func() float64 { return law(d.sim.Executor().Cap()) },
		})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := d.CtrlEndpoint()
		if err != nil {
			t.Fatal(err)
		}
		f.daemons = append(f.daemons, d)
		endpoints[2+j] = ep
	}
	bsrv, err := ctrlplane.StartBinaryServer("127.0.0.1:0", ctrlplane.BinaryServerConfig{Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	f.bsrv = bsrv
	f.refs = make([]ctrlplane.AgentRef, 4)
	for i := range f.refs {
		f.refs[i] = ctrlplane.AgentRef{ID: i, URL: bsrv.URL()}
	}
	return f
}

// advanceLearnFleet runs one drill step's member-side work: trace
// agents tick to ts, daemons advance twice (the first advance's learn
// step schedules any probe move, the second runs the simulation past it
// so the enforced cap reflects this interval's probe).
func advanceLearnFleet(t *testing.T, f *learnFleet, ts float64) {
	t.Helper()
	for _, a := range f.agents {
		if err := a.Tick(ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range f.daemons {
		for k := 0; k < 2; k++ {
			if err := d.Advance(0.05); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLearningConvergenceWelfare is the online-learning acceptance
// drill: a utility coordinator drives two trace agents plus two live
// daemons that boot curveless and learn their cap→rate curves from the
// control loop's own samples. Within 50 intervals of cold start the
// budget split's welfare under the true curves must come within 5% of
// the oracle apportionment over those same curves, the learned curves
// themselves must be close, the cluster cap must never be oversubscribed
// while the curves are partial, and the whole trajectory must replay
// bit-identically from the same seeds.
func TestLearningConvergenceWelfare(t *testing.T) {
	const (
		interval = 300.0
		capW     = 380.0
		steps    = 50
	)
	hw := simhw.DefaultConfig()
	floor, nameplate := hw.PIdleWatts, hw.MaxServerWatts()
	grid := cf.CapGrid(floor, nameplate, cluster.ServerCapStepW)
	laws := learnLaws()

	ev := drillEvaluator(t, 2)
	// The oracle: the DP over the true curves — the evaluator's for the
	// trace agents, the rate laws' (built through the estimator's own
	// CurveFromRates) for the live daemons.
	trueCurves := make([][]cluster.CapPoint, 4)
	for i := 0; i < 2; i++ {
		c, err := ev.ServerCapCurve(i)
		if err != nil {
			t.Fatal(err)
		}
		trueCurves[i] = c
	}
	for j, law := range laws {
		trueCurves[2+j] = cf.CurveFromRates(grid, lawRates(grid, law))
	}
	_, oraclePerf, _ := cluster.ApportionCurves(capW, floor, trueCurves)
	if oraclePerf <= 0 {
		t.Fatalf("oracle welfare %g", oraclePerf)
	}

	// welfare scores a budget vector against the true curves, in the
	// same units the oracle DP reports.
	welfare := func(budgets []float64) float64 {
		var sum float64
		for i := 0; i < 2; i++ {
			p, _, err := ev.PlanServer(i, policy.AppResESDAware, math.Min(budgets[i], nameplate))
			if err != nil {
				t.Fatal(err)
			}
			sum += p
		}
		for j, law := range laws {
			sum += law(math.Min(budgets[2+j], nameplate)) / law(nameplate)
		}
		return sum
	}

	run := func() (hist [][]float64, curveErr float64) {
		clk := &drillClock{}
		f := startLearnFleet(t, ev, clk, cf.OnlineConfig{Epsilon: 0.5, Seed: 11})
		defer f.close()
		coord, err := ctrlplane.New(ctrlplane.Config{
			Agents:    f.refs,
			Strategy:  ctrlplane.StrategyUtility,
			LeaseIv:   2,
			IntervalS: interval,
			// Admit a learned curve early: the grant bounds the reachable
			// cells, so waiting for the default coverage floor would
			// deadlock a member whose even share never reaches the upper
			// grid — the CF fill is what carries the unreachable cells.
			CurveConfFloor: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		for s := 0; s < steps; s++ {
			ts := float64(s) * interval
			clk.set(ts)
			res, err := coord.Step(context.Background(), ts, capW)
			if err != nil {
				t.Fatal(err)
			}
			var granted float64
			for _, b := range res.Budgets {
				granted += b
			}
			if granted > capW+1e-6 {
				t.Fatalf("step %d: granted budgets sum to %g W over the %g W cluster cap", s, granted, capW)
			}
			hist = append(hist, append([]float64(nil), res.Budgets...))
			advanceLearnFleet(t, f, ts)
			// The learning invariant: probes self-cap at or below the
			// grant, so the enforced fleet never oversubscribes the
			// cluster cap while the curves are partial.
			var enforced float64
			for i := 0; i < 4; i++ {
				enforced += f.memberCap(i)
			}
			if enforced > capW+1e-6 {
				t.Fatalf("step %d: enforced caps sum to %g W over the %g W cluster cap", s, enforced, capW)
			}
		}
		for j, d := range f.daemons {
			h := d.health()
			if !h.CtrlLearning || h.CtrlCurveCells == 0 {
				t.Fatalf("daemon %d reports learning=%v cells=%d after %d intervals",
					2+j, h.CtrlLearning, h.CtrlCurveCells, steps)
			}
			rep, err := d.ctrl.Report()
			if err != nil {
				t.Fatal(err)
			}
			curve := rep.UtilityCurve
			if len(curve) != len(grid) {
				t.Fatalf("daemon %d learned %d curve cells, want %d", 2+j, len(curve), len(grid))
			}
			for k := range curve {
				if e := math.Abs(curve[k].Perf - trueCurves[2+j][k].Perf); e > curveErr {
					curveErr = e
				}
			}
		}
		return hist, curveErr
	}

	hist, curveErr := run()
	got := welfare(hist[len(hist)-1])
	if got < 0.95*oraclePerf {
		t.Fatalf("welfare after %d intervals %g, oracle %g (%.1f%%), want within 5%%",
			steps, got, oraclePerf, 100*got/oraclePerf)
	}
	if curveErr > 0.25 {
		t.Fatalf("learned-curve error %g after %d intervals, want <= 0.25", curveErr, steps)
	}
	// Cold start must actually have cost something, or the drill proves
	// nothing about learning.
	if first := welfare(hist[0]); first >= 0.99*oraclePerf {
		t.Fatalf("cold-start welfare %g already at the oracle %g; drill has no learning signal", first, oraclePerf)
	}
	// Same seeds, same trajectory: the drill is a replayable scenario.
	again, _ := run()
	for s := range hist {
		for i := range hist[s] {
			if hist[s][i] != again[s][i] {
				t.Fatalf("step %d member %d budget %g W replayed as %g W", s, i, hist[s][i], again[s][i])
			}
		}
	}
}

// oracleBackend is a trace stand-in for a learned-out daemon: its curve
// is constructed through the same CurveFromRates helper the estimator
// reports through, so a fully converged learner must match its budgets
// bit for bit.
type oracleBackend struct {
	curve              []cluster.CapPoint
	floorW, nameplateW float64
}

func (b *oracleBackend) Apply(capW float64) (float64, float64, error) { return 1, capW, nil }
func (b *oracleBackend) SoC() float64                                 { return 0 }
func (b *oracleBackend) IdleFloorW() float64                          { return b.floorW }
func (b *oracleBackend) NameplateW() float64                          { return b.nameplateW }
func (b *oracleBackend) UtilityCurve() ([]cluster.CapPoint, error)    { return b.curve, nil }

// TestMixedFleetLearnedCurveParity is the learning parity regression:
// once the live daemons' estimators reach full coverage, the utility
// coordinator's budgets over their learned curves must be bit-identical
// to an all-trace fleet whose stand-ins report the oracle curves — the
// learned empirical table, the wire round-trip, and the DP introduce
// not one ulp of drift.
func TestMixedFleetLearnedCurveParity(t *testing.T) {
	const (
		interval   = 300.0
		capW       = 600.0
		learnSteps = 50
		totalSteps = 60
	)
	hw := simhw.DefaultConfig()
	floor, nameplate := hw.PIdleWatts, hw.MaxServerWatts()
	grid := cf.CapGrid(floor, nameplate, cluster.ServerCapStepW)
	laws := learnLaws()

	// Mixed fleet: epsilon 1 probes the least-sampled cell every
	// interval, sweeping the whole grid in len(grid) intervals — the
	// fastest deterministic route to full coverage.
	clk := &drillClock{}
	evL := drillEvaluator(t, 2)
	fleet := startLearnFleet(t, evL, clk, cf.OnlineConfig{Epsilon: 1, Seed: 41})
	defer fleet.close()

	// All-trace twin: same trace agents, the daemons replaced by
	// pre-characterized stand-ins reporting the rate laws' oracle curves.
	evT := drillEvaluator(t, 2)
	var oracleAgents []*ctrlplane.Agent
	endpoints := map[int]ctrlplane.CtrlEndpoint{}
	for i := 0; i < 2; i++ {
		a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{
			ID: i, Backend: ctrlplane.NewSimBackend(evT, i), Version: "test",
		})
		if err != nil {
			t.Fatal(err)
		}
		oracleAgents = append(oracleAgents, a)
		endpoints[i] = a
	}
	for j, law := range laws {
		a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{
			ID: 2 + j,
			Backend: &oracleBackend{
				curve:      cf.CurveFromRates(grid, lawRates(grid, law)),
				floorW:     floor,
				nameplateW: nameplate,
			},
			Version: "test",
		})
		if err != nil {
			t.Fatal(err)
		}
		oracleAgents = append(oracleAgents, a)
		endpoints[2+j] = a
	}
	bsrvT, err := ctrlplane.StartBinaryServer("127.0.0.1:0", ctrlplane.BinaryServerConfig{Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrvT.Close()
	refsT := make([]ctrlplane.AgentRef, 4)
	for i := range refsT {
		refsT[i] = ctrlplane.AgentRef{ID: i, URL: bsrvT.URL()}
	}

	mkCoord := func(refs []ctrlplane.AgentRef) *ctrlplane.Coordinator {
		c, err := ctrlplane.New(ctrlplane.Config{
			Agents:    refs,
			Strategy:  ctrlplane.StrategyUtility,
			LeaseIv:   2,
			IntervalS: interval,
			// Admit learned curves only at full coverage: a partially
			// learned curve whose filled tail goes flat would win a
			// sub-nameplate grant, and since probes never exceed the
			// grant, the cells above it would stay unreachable forever.
			// On the even-share fallback the whole grid is reachable, so
			// the sweep completes — and the floor's boundary semantics
			// (admit at exactly 1.0) get exercised on the way.
			CurveConfFloor: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coordL := mkCoord(fleet.refs)
	defer coordL.Close()
	coordT := mkCoord(refsT)
	defer coordT.Close()

	converged, compared := -1, 0
	for s := 0; s < totalSteps; s++ {
		ts := float64(s) * interval
		clk.set(ts)
		resL, err := coordL.Step(context.Background(), ts, capW)
		if err != nil {
			t.Fatal(err)
		}
		resT, err := coordT.Step(context.Background(), ts, capW)
		if err != nil {
			t.Fatal(err)
		}
		advanceLearnFleet(t, fleet, ts)
		for _, a := range oracleAgents {
			if err := a.Tick(ts); err != nil {
				t.Fatal(err)
			}
		}
		if converged < 0 {
			full := true
			for _, d := range fleet.daemons {
				if d.health().CtrlCurveConf != 1 {
					full = false
				}
			}
			if full {
				converged = s
			}
			continue
		}
		// One interval after convergence the coordinator has scraped the
		// final empirical table; from then on the fleets must agree bit
		// for bit.
		if s < converged+2 {
			continue
		}
		if resL.Iv == 0 || resL.Iv != resT.Iv {
			t.Fatalf("step %d: minted interval %d (all-trace %d)", s, resL.Iv, resT.Iv)
		}
		for i := range resL.Budgets {
			if resL.Budgets[i] != resT.Budgets[i] {
				t.Fatalf("step %d: member %d learned-curve budget %g W, all-trace %g W",
					s, i, resL.Budgets[i], resT.Budgets[i])
			}
		}
		compared++
	}
	if converged < 0 || converged >= learnSteps {
		var confs []float64
		for _, d := range fleet.daemons {
			confs = append(confs, d.health().CtrlCurveConf)
		}
		t.Fatalf("daemons not fully converged by interval %d (confidence %v)", learnSteps, confs)
	}
	if compared < 5 {
		t.Fatalf("only %d post-convergence intervals compared", compared)
	}
	// A converged probe is the full grant: the enforced caps themselves
	// must match the all-trace twin, not just the paper budgets.
	for i := 0; i < 4; i++ {
		if got, want := fleet.memberCap(i), oracleAgents[i].CapW(); got != want {
			t.Fatalf("member %d enforces %g W, all-trace twin %g W", i, got, want)
		}
	}
}
