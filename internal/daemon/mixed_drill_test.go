package daemon

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

// drillClock is the injectable wall clock the live daemons run on in
// the mixed drill: nanoseconds past an arbitrary base, advanced in
// lockstep with the coordinator's trace time so trace and wall lease
// arithmetic see bit-identical elapsed spans.
type drillClock struct{ nanos atomic.Int64 }

func (c *drillClock) now() time.Time { return time.Unix(0, c.nanos.Load()) }
func (c *drillClock) set(t float64)  { c.nanos.Store(int64(t * 1e9)) }

// drillEvaluator builds the same small fleet the ctrlplane parity
// tests use.
func drillEvaluator(t *testing.T, servers int) *cluster.Evaluator {
	t.Helper()
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		t.Fatal(err)
	}
	mixes := workload.Mixes()
	assign := make([]workload.Mix, servers)
	for i := range assign {
		assign[i] = mixes[i%len(mixes)]
	}
	ev, err := cluster.NewEvaluator(cluster.Config{HW: hw, Library: lib, Mixes: assign})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestMixedFleetClockParity is the mixed trace+wall acceptance drill:
// one coordinator in protocol-clock mode drives a fleet of two
// trace-replay agents and two live daemons behind a single shared
// BinaryServer listener, while an all-trace oracle fleet replays the
// identical schedule. Budgets must match the oracle bit-for-bit every
// interval, and through a five-interval coordinator stall both kinds
// of member must lapse and decay to bit-identical caps — the whole
// point of leases denominated in intervals instead of seconds.
func TestMixedFleetClockParity(t *testing.T) {
	const (
		servers  = 4
		interval = 300.0
		leaseIv  = 2
	)
	safe := ctrlplane.SafeModeConfig{HoldS: interval, DecayWPerS: 0.05, FloorW: 66}

	// Oracle: four trace-replay agents on one binary listener.
	evO := drillEvaluator(t, servers)
	oracle, err := ctrlplane.StartSimFleetOpts(evO, ctrlplane.FleetOptions{
		Version:        "test",
		SafeMode:       safe,
		SharedListener: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Mixed fleet: agents 0-1 replay the trace, servers 2-3 are live
	// daemons on the injected wall clock. All four share one binary
	// listener so grants and renewals ride the same batch frames.
	clk := &drillClock{}
	evM := drillEvaluator(t, 2)
	var agents []*ctrlplane.Agent
	endpoints := map[int]ctrlplane.CtrlEndpoint{}
	for i := 0; i < 2; i++ {
		a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{
			ID: i, Backend: ctrlplane.NewSimBackend(evM, i), SafeMode: safe, Version: "test",
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		endpoints[i] = a
	}
	var daemons []*Daemon
	for i := 2; i < servers; i++ {
		d, err := New(Config{Version: "test"})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.EnableCtrl(CtrlConfig{ServerID: i, SafeMode: safe, Clock: clk.now}); err != nil {
			t.Fatal(err)
		}
		ep, err := d.CtrlEndpoint()
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		endpoints[i] = ep
	}
	bsrv, err := ctrlplane.StartBinaryServer("127.0.0.1:0", ctrlplane.BinaryServerConfig{Endpoints: endpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer bsrv.Close()
	refs := make([]ctrlplane.AgentRef, servers)
	for i := range refs {
		refs[i] = ctrlplane.AgentRef{ID: i, URL: bsrv.URL()}
	}

	mkCoord := func(agents []ctrlplane.AgentRef) *ctrlplane.Coordinator {
		c, err := ctrlplane.New(ctrlplane.Config{
			Agents:    agents,
			Strategy:  ctrlplane.StrategyEqual,
			LeaseIv:   leaseIv,
			IntervalS: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	coordM := mkCoord(refs)
	defer coordM.Close()
	coordO := mkCoord(oracle.Refs())
	defer coordO.Close()

	// capW returns this step's cluster budget: two plateaus so both the
	// assign and the coalesced-renewal paths run, then a third after
	// the stall.
	capW := func(s int) float64 {
		switch {
		case s < 4:
			return 600
		case s < 8:
			return 560
		default:
			return 520
		}
	}

	// memberCap reads the enforced cap of mixed-fleet member i.
	memberCap := func(i int) float64 {
		if i < 2 {
			return agents[i].CapW()
		}
		return daemons[i-2].health().CapW
	}

	lapsedSteps := 0
	for s := 0; s < 20; s++ {
		ts := float64(s) * interval
		clk.set(ts)
		paused := s >= 8 && s <= 12
		if !paused {
			resM, err := coordM.Step(context.Background(), ts, capW(s))
			if err != nil {
				t.Fatal(err)
			}
			resO, err := coordO.Step(context.Background(), ts, capW(s))
			if err != nil {
				t.Fatal(err)
			}
			if resM.Iv == 0 || resM.Iv != resO.Iv {
				t.Fatalf("step %d: minted interval %d (oracle %d)", s, resM.Iv, resO.Iv)
			}
			for i := range resM.Budgets {
				if resM.Budgets[i] != resO.Budgets[i] {
					t.Fatalf("step %d: member %d budget %g W, oracle %g W",
						s, i, resM.Budgets[i], resO.Budgets[i])
				}
				if !resM.Granted[i] {
					t.Fatalf("step %d: member %d not granted", s, i)
				}
			}
		}
		for _, a := range agents {
			if err := a.Tick(ts); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range oracle.Agents {
			if err := a.Tick(ts); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range daemons {
			// Two advances: the fence check at the end of the first
			// schedules any decay clamp, the second runs the simulation
			// past it so the enforced cap reflects this interval's decay
			// step (the live loop's ticker cadence does the same). 0.05
			// is a whole number of 0.01 s sim steps, so the daemon's
			// simTime stays aligned with the executor clock.
			for k := 0; k < 2; k++ {
				if err := d.Advance(0.05); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The drill's core assertion: every mixed-fleet member —
		// trace-replay or wall-clock — enforces bit-for-bit the cap its
		// all-trace twin enforces, granted, lapsed, or decaying.
		for i := 0; i < servers; i++ {
			if got, want := memberCap(i), oracle.Agents[i].CapW(); got != want {
				t.Fatalf("step %d: member %d cap %g W, all-trace oracle %g W", s, i, got, want)
			}
		}
		if paused {
			h := daemons[0].health()
			if h.CtrlSafeMode {
				lapsedSteps++
				if !h.CtrlLeaseExpired || h.CtrlLeaseExpiresInS != 0 {
					t.Fatalf("step %d: lapsed daemon reports expired=%v expiresIn=%g",
						s, h.CtrlLeaseExpired, h.CtrlLeaseExpiresInS)
				}
			}
		}
	}
	// The stall spans five intervals against a two-interval lease: the
	// fleet must actually have degraded, not coasted on a stale lease.
	if lapsedSteps < 3 {
		t.Fatalf("daemons were in safe mode for %d stall steps, want >= 3", lapsedSteps)
	}
	for i, d := range daemons {
		h := d.health()
		if h.CtrlSafeMode || h.CtrlFenced {
			t.Fatalf("daemon %d still degraded after the coordinator resumed: %+v", 2+i, h)
		}
		if h.CtrlClockSkewIv != 0 {
			t.Fatalf("daemon %d skew %g intervals under a lockstep clock", 2+i, h.CtrlClockSkewIv)
		}
		if h.CtrlIv == 0 || h.CtrlIv != oracle.Agents[2+i].LastIv() {
			t.Fatalf("daemon %d tracked interval %d, oracle %d", 2+i, h.CtrlIv, oracle.Agents[2+i].LastIv())
		}
	}
	for i, a := range agents {
		if a.SafeModeEntries() != 1 || oracle.Agents[i].SafeModeEntries() != 1 {
			t.Fatalf("replay agent %d safe-mode entries %d (oracle %d), want exactly 1 from the stall",
				i, a.SafeModeEntries(), oracle.Agents[i].SafeModeEntries())
		}
	}
}
