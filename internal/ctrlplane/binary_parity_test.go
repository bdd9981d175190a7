package ctrlplane

import (
	"context"
	"testing"
)

// TestCtrlPlaneParityBinary is the shared-listener acceptance gate:
// the same replay that TestCtrlPlaneParity runs as one-entry frames to
// per-agent listeners, carried instead as whole-fleet frames over one
// pooled TCP conn, must be bit-for-bit identical to the pure simulation
// — and must actually batch (one scrape frame and one grant frame per
// interval) rather than send a frame per agent.
func TestCtrlPlaneParityBinary(t *testing.T) {
	const servers = 4
	caps := capRamp(12, 300, 750, 350)
	for _, strat := range []Strategy{StrategyEqual, StrategyUtility} {
		t.Run(strat.String(), func(t *testing.T) {
			ev := testEvaluator(t, servers, nil)
			oracle, err := ev.Evaluate(caps, oracleStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}

			flt, err := StartSimFleetOpts(ev, FleetOptions{Version: "test", SharedListener: true})
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
			defer coord.Close()
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
						t.Fatalf("step %d server %d: binary budget %g W, simulation %g W",
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
			st := coord.Stats()
			if st.LeaseExpiries != 0 || st.Reapportions != 0 {
				t.Fatalf("membership churn under zero faults: %+v", st)
			}
			// The whole fleet shares one listener, so every interval must
			// collapse to exactly two frames: one batch scrape, one batch
			// grant, each carrying all four agents.
			if want := 2 * len(caps); st.BatchFrames != want {
				t.Fatalf("%d batch frames over %d intervals, want %d (scrape+grant per interval)",
					st.BatchFrames, len(caps), want)
			}
			if want := 2 * len(caps) * servers; st.BatchedOps != want {
				t.Fatalf("%d batched ops, want %d", st.BatchedOps, want)
			}
			// The conn pool must hold the conn across intervals: one dial
			// for the whole replay, everything after it a reuse.
			ws := coord.WireStats()
			if ws.BinaryDials != 1 {
				t.Fatalf("replay dialed %d conns; the pool should reuse the first across all %d intervals",
					ws.BinaryDials, len(caps))
			}
			if ws.BinaryReuses == 0 {
				t.Fatalf("no conn reuses recorded across %d intervals", len(caps))
			}
		})
	}
}

// TestBinaryCoalescedRenewals: under a constant cap with a long lease,
// the batch grant frame must carry renewals, not re-assignments — each
// agent applies exactly one assign for the whole run, every later
// interval rides the coalesced renewal entries, and nothing fences.
func TestBinaryCoalescedRenewals(t *testing.T) {
	ev := testEvaluator(t, 3, nil)
	flt, err := StartSimFleetOpts(ev, FleetOptions{Version: "test", SharedListener: true})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	coord, err := New(Config{Agents: flt.Refs(), Strategy: StrategyEqual, LeaseIv: 3, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const steps = 6
	for step := 0; step < steps; step++ {
		ts := float64(step) * 300
		res, err := coord.Step(context.Background(), ts, 400)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range res.Granted {
			if !g {
				t.Fatalf("step %d: agent %d not granted", step, i)
			}
		}
		if err := flt.Tick(ts); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range flt.Agents {
		if n := a.Assigns(); n != 1 {
			t.Errorf("agent %d applied %d assigns; steady state should renew inside the batch frame", i, n)
		}
		if a.Fences() != 0 || a.Fenced() {
			t.Errorf("agent %d fenced under steady renewal", i)
		}
	}
	st := coord.Stats()
	if want := 2 * steps; st.BatchFrames != want {
		t.Fatalf("%d batch frames, want %d — renewals must ride the batch path", st.BatchFrames, want)
	}
	if st.LeaseExpiries != 0 {
		t.Fatalf("lease expiries under steady renewal: %+v", st)
	}
}

// TestBinaryChaosSoak bounces the binary conn pool from both ends mid
// replay — the server hard-closing every live conn, the client dropping
// its idle pool — and requires the transport's redial-once recovery to
// keep the replay bit-exact: every grant acknowledged, zero surfaced
// RPC errors, budgets identical to the pure simulation. CI runs this
// under -race; the bounce exercises the pool's lifecycle paths
// concurrently with checkout.
func TestBinaryChaosSoak(t *testing.T) {
	const servers = 4
	caps := capRamp(24, 300, 750, 400)
	ev := testEvaluator(t, servers, nil)
	oracle, err := ev.Evaluate(caps, oracleStrategy(StrategyEqual))
	if err != nil {
		t.Fatal(err)
	}
	flt, err := StartSimFleetOpts(ev, FleetOptions{Version: "test", SharedListener: true})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	coord, err := New(Config{Agents: flt.Refs(), Strategy: StrategyEqual, LeaseIv: 1, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for s, cp := range caps {
		// Chaos on a fixed schedule, so the soak is reproducible: the
		// server bounces its conns on some steps, the client drops its
		// pool on others, and both collide on steps divisible by 35.
		if s%5 == 2 {
			flt.BinaryServer().BounceConns()
		}
		if s%7 == 3 {
			coord.client.bin.closeIdle()
		}
		res, err := coord.Step(context.Background(), cp.T, cp.V)
		if err != nil {
			t.Fatal(err)
		}
		if err := flt.Tick(cp.T); err != nil {
			t.Fatal(err)
		}
		for i, b := range res.Budgets {
			if b != oracle.BudgetSeries[s][i] {
				t.Fatalf("step %d server %d: chaos budget %g W, simulation %g W", s, i, b, oracle.BudgetSeries[s][i])
			}
		}
		for i, g := range res.Granted {
			if !g {
				t.Fatalf("step %d: agent %d not granted after conn bounce", s, i)
			}
		}
		if res.ScrapeErrs != 0 || res.AssignErrs != 0 {
			t.Fatalf("step %d: surfaced RPC errors despite redial recovery: %+v", s, res)
		}
	}
	st := coord.Stats()
	if st.LeaseExpiries != 0 || st.Reapportions != 0 {
		t.Fatalf("membership churn from conn bounces alone: %+v", st)
	}
	ws := coord.WireStats()
	if ws.BinaryDials < 2 {
		t.Fatalf("chaos soak dialed %d conns; bounces should have forced redials", ws.BinaryDials)
	}
	// Redials stay bounded: at most a couple per bounced step, never
	// dial-per-RPC.
	if ws.BinaryDials > uint64(len(caps)) {
		t.Fatalf("chaos soak dialed %d conns over %d intervals; redial should be once per bounce, not per RPC", ws.BinaryDials, len(caps))
	}
}
