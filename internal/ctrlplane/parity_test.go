package ctrlplane

import (
	"context"
	"testing"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/trace"
	"powerstruggle/internal/workload"
)

// testEvaluator builds the same small fleet the cluster tests use.
func testEvaluator(t *testing.T, servers int, dropouts []cluster.Dropout) *cluster.Evaluator {
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
	ev, err := cluster.NewEvaluator(cluster.Config{HW: hw, Library: lib, Mixes: assign, Dropouts: dropouts})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// capRamp sweeps [loW, hiW] over n points at stepS resolution.
func capRamp(n int, stepS, loW, hiW float64) []trace.Point {
	pts := make([]trace.Point, n)
	for i := range pts {
		frac := float64(i) / float64(n-1)
		pts[i] = trace.Point{T: float64(i) * stepS, V: loW + frac*(hiW-loW)}
	}
	return pts
}

func oracleStrategy(s Strategy) cluster.Strategy {
	if s == StrategyUtility {
		return cluster.UtilityOurs
	}
	return cluster.EqualOurs
}

// TestCtrlPlaneParity is the headline acceptance gate: replaying a cap
// schedule through the networked coordinator — real frames, real TCP,
// real fan-out — over in-process agents must produce bit-for-bit the
// per-server budget sequence of the pure simulation, for both
// Equal(Ours) and Utility(Ours), under zero network faults.
func TestCtrlPlaneParity(t *testing.T) {
	const servers = 4
	caps := capRamp(12, 300, 750, 350)
	for _, strat := range []Strategy{StrategyEqual, StrategyUtility} {
		t.Run(strat.String(), func(t *testing.T) {
			ev := testEvaluator(t, servers, nil)
			oracle, err := ev.Evaluate(caps, oracleStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}

			flt, err := StartSimFleet(ev, "test")
			if err != nil {
				t.Fatal(err)
			}
			defer flt.Close()
			coord, err := New(Config{
				Agents:    flt.Refs(),
				Strategy:  strat,
				LeaseIv:   1,
				IntervalS: 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			results, err := coord.Replay(context.Background(), caps, func(res StepResult) {
				if err := flt.Tick(res.T); err != nil {
					t.Errorf("tick %g: %v", res.T, err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(caps) {
				t.Fatalf("%d results for %d cap points", len(results), len(caps))
			}
			for s, res := range results {
				for i, b := range res.Budgets {
					if b != oracle.BudgetSeries[s][i] {
						t.Fatalf("step %d server %d: networked budget %g W, simulation %g W",
							s, i, b, oracle.BudgetSeries[s][i])
					}
				}
				for i, g := range res.Granted {
					if !g {
						t.Fatalf("step %d: agent %d's budget not acknowledged under zero faults", s, i)
					}
				}
				if res.ScrapeErrs != 0 || res.AssignErrs != 0 {
					t.Fatalf("step %d: RPC errors under zero faults: %+v", s, res)
				}
			}
			if st := coord.Stats(); st.LeaseExpiries != 0 || st.Reapportions != 0 {
				t.Fatalf("membership churn under zero faults: %+v", st)
			}
		})
	}
}

// TestDropoutLeaseExpiryParity is the dropout-equivalence gate: the
// same outage expressed two ways — an in-process Dropout window in the
// simulation, or a blackholed agent whose membership lease expires —
// must yield the identical budget trace. This is what makes the
// networked control plane a faithful implementation of the paper's
// re-apportioning semantics rather than an approximation.
func TestDropoutLeaseExpiryParity(t *testing.T) {
	const servers, lost = 4, 1
	// Outage spans [600, 1500): cap points at 600, 900, 1200 see the
	// server down; it returns for 1500+.
	caps := capRamp(10, 300, 700, 450)
	window := cluster.Dropout{Server: lost, FromT: 600, ToT: 1500}

	for _, strat := range []Strategy{StrategyEqual, StrategyUtility} {
		t.Run(strat.String(), func(t *testing.T) {
			// Oracle: the simulation with an in-process dropout window.
			evOracle := testEvaluator(t, servers, []cluster.Dropout{window})
			oracle, err := evOracle.Evaluate(caps, oracleStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}

			// Networked: a healthy simulation; the outage happens on the
			// wire instead, as a deterministic blackhole of that agent.
			ev := testEvaluator(t, servers, nil)
			flt, err := StartSimFleet(ev, "test")
			if err != nil {
				t.Fatal(err)
			}
			defer flt.Close()
			net, err := faults.NewNetInjector(faults.NetConfig{})
			if err != nil {
				t.Fatal(err)
			}
			refs := flt.Refs()
			lostHost := refs[lost].URL[len("tcp://"):]
			coord, err := New(Config{
				Agents:    refs,
				Strategy:  strat,
				LeaseIv:   1,
				IntervalS: 300,
				// One missed scrape expires the membership lease, so the
				// re-apportioning lands in the same control interval as
				// the outage — the simulation's dropout detection is
				// instantaneous, and MissK=1 is its networked equivalent.
				MissK:     1,
				Transport: net,
			})
			if err != nil {
				t.Fatal(err)
			}

			for s, cp := range caps {
				net.SetDown(lostHost, cp.T >= window.FromT && cp.T < window.ToT)
				res, err := coord.Step(context.Background(), cp.T, cp.V)
				if err != nil {
					t.Fatal(err)
				}
				if err := flt.Tick(cp.T); err != nil {
					t.Fatal(err)
				}
				for i, b := range res.Budgets {
					if b != oracle.BudgetSeries[s][i] {
						t.Fatalf("step %d (t=%g) server %d: lease-expiry budget %g W, dropout budget %g W",
							s, cp.T, i, b, oracle.BudgetSeries[s][i])
					}
				}
				// The blackholed agent must also stop drawing within one
				// control interval: its draw lease lapses and it fences.
				if cp.T >= window.FromT+300 && cp.T < window.ToT {
					if !flt.Agents[lost].Fenced() {
						t.Fatalf("t=%g: blackholed agent still unfenced past one interval", cp.T)
					}
				}
			}
			st := coord.Stats()
			if st.LeaseExpiries != 1 || st.Rejoins != 1 {
				t.Fatalf("expiries=%d rejoins=%d, want 1 and 1", st.LeaseExpiries, st.Rejoins)
			}
			if st.Reapportions != oracle.Reapportions {
				t.Fatalf("networked reapportions %d, simulation %d", st.Reapportions, oracle.Reapportions)
			}
		})
	}
}

// Renewals: under a constant cap with a lease longer than the control
// interval, the coordinator must switch to cheap lease renewals and the
// agents must never re-apply or fence.
func TestCoordinatorRenewsUnchangedBudgets(t *testing.T) {
	ev := testEvaluator(t, 2, nil)
	flt, err := StartSimFleet(ev, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	coord, err := New(Config{Agents: flt.Refs(), Strategy: StrategyEqual, LeaseIv: 3, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		t6 := float64(step) * 300
		if _, err := coord.Step(context.Background(), t6, 400); err != nil {
			t.Fatal(err)
		}
		if err := flt.Tick(t6); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range flt.Agents {
		if a.Fences() != 0 {
			t.Errorf("agent %d fenced %d times under steady renewal", i, a.Fences())
		}
		if a.Fenced() {
			t.Errorf("agent %d fenced", i)
		}
	}
}
