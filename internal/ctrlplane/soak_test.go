package ctrlplane

import (
	"context"
	"testing"
	"time"

	"powerstruggle/internal/faults"
	"powerstruggle/internal/telemetry"
)

// TestCtrlPlaneSoak is the safety acceptance gate: under dropped,
// delayed, and duplicated RPCs, the summed fleet draw must never exceed
// the cluster cap at any control interval. The guarantee is structural,
// not probabilistic — every grant is a lease no longer than the control
// interval, so an agent the coordinator cannot reach fences itself to
// zero draw before its stale budget can conflict with a re-apportioned
// one. Run under -race in CI: the fan-out, the fault injector, and the
// shared evaluator backend all exercise their locking here.
func TestCtrlPlaneSoak(t *testing.T) {
	const (
		servers  = 4
		steps    = 36
		interval = 300.0
	)
	for _, tc := range []struct {
		name string
		net  faults.NetConfig
	}{
		{"drops", faults.NetConfig{Seed: 11, DropReqP: 0.2, DropRespP: 0.1}},
		{"delays", faults.NetConfig{Seed: 12, DelayP: 0.5, DelayMax: 3 * time.Millisecond}},
		{"duplicates", faults.NetConfig{Seed: 13, DupP: 0.3}},
		{"everything", faults.NetConfig{Seed: 14, DropReqP: 0.15, DropRespP: 0.1,
			DelayP: 0.3, DelayMax: 3 * time.Millisecond, DupP: 0.2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev := testEvaluator(t, servers, nil)
			flt, err := StartSimFleet(ev, "soak")
			if err != nil {
				t.Fatal(err)
			}
			defer flt.Close()
			net, err := faults.NewNetInjector(tc.net)
			if err != nil {
				t.Fatal(err)
			}
			hub := telemetry.New(0)
			coord, err := New(Config{
				Agents:   flt.Refs(),
				Strategy: StrategyUtility,
				// The lease equals the control interval — the longest
				// lease that still guarantees the cap invariant.
				LeaseIv:     1,
				IntervalS:   interval,
				MissK:       2,
				RPCTimeout:  250 * time.Millisecond,
				Retries:     1,
				BackoffBase: time.Millisecond,
				BackoffMax:  4 * time.Millisecond,
				Seed:        99,
				Transport:   net,
				Telemetry:   hub,
			})
			if err != nil {
				t.Fatal(err)
			}

			// A sawtooth cap: decreases are the dangerous direction (a
			// stale larger budget must die before the smaller total
			// applies), so sweep down repeatedly.
			caps := make([]float64, steps)
			for i := range caps {
				caps[i] = 700 - float64(i%6)*60
			}
			var assignErrs int
			for s, capW := range caps {
				ts := float64(s) * interval
				res, err := coord.Step(context.Background(), ts, capW)
				if err != nil {
					t.Fatal(err)
				}
				assignErrs += res.AssignErrs
				// The agents' own clocks reach ts: any lease not renewed
				// this interval has lapsed and fenced its agent.
				if err := flt.Tick(ts); err != nil {
					t.Fatal(err)
				}
				if draw := flt.FleetGridW(); draw > capW+1e-6 {
					t.Fatalf("step %d (t=%g): fleet draws %g W over the %g W cluster cap", s, ts, draw, capW)
				}
				// Mid-interval the same cap still holds; leases granted at
				// ts are still live, fenced agents stay fenced.
				if err := flt.Tick(ts + interval/2); err != nil {
					t.Fatal(err)
				}
				if draw := flt.FleetGridW(); draw > capW+1e-6 {
					t.Fatalf("step %d (t=%g, mid-interval): fleet draws %g W over the %g W cap", s, ts, draw, capW)
				}
			}

			counts := net.Counts()
			injected := counts.ReqDrops + counts.RespDrops + counts.Delays + counts.Duplicates
			if tc.net.Enabled() && injected == 0 {
				t.Fatalf("soak injected no faults (%+v) — the run proved nothing", counts)
			}
			t.Logf("%s: injected %+v; coordinator stats %+v; assign errors %d",
				tc.name, counts, coord.Stats(), assignErrs)

			// Recovery: with the network healed, the fleet must converge
			// back to full membership and full grants within MissK+1
			// intervals.
			net.Heal()
			healT := float64(steps) * interval
			for s := 0; s < 3; s++ {
				ts := healT + float64(s)*interval
				res, err := coord.Step(context.Background(), ts, 700)
				if err != nil {
					t.Fatal(err)
				}
				if err := flt.Tick(ts); err != nil {
					t.Fatal(err)
				}
				if s == 2 {
					for i, g := range res.Granted {
						if !g {
							t.Errorf("agent %d still ungranted after the network healed", i)
						}
					}
					for i, a := range res.Alive {
						if !a {
							t.Errorf("agent %d still expired after the network healed", i)
						}
					}
				}
			}
		})
	}
}
