package ctrlplane

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"powerstruggle/internal/faults"
)

// TestLeaseWithinMissK pins the timing rule New enforces: a member's
// draw lease lapses no later than its membership expires. A lease of
// LeaseIv > MissK intervals would let a partitioned member keep its
// grant after its watts went to the survivors. At LeaseIv ≤ MissK a
// member blackholed mid-run never lifts the fleet's enforced caps above
// the cluster cap.
func TestLeaseWithinMissK(t *testing.T) {
	for _, lm := range [][2]int{{2, 1}, {3, 2}, {4, 3}} {
		_, err := New(Config{Agents: []AgentRef{{ID: 0, URL: "tcp://127.0.0.1:1"}},
			IntervalS: 300, LeaseIv: lm[0], MissK: lm[1]})
		if err == nil {
			t.Fatalf("New accepted LeaseIv %d > MissK %d", lm[0], lm[1])
		}
		if want := fmt.Sprintf("lease of %d intervals outlives MissK %d", lm[0], lm[1]); !strings.Contains(err.Error(), want) {
			t.Fatalf("LeaseIv %d, MissK %d: error %q does not say %q", lm[0], lm[1], err, want)
		}
	}

	const servers, capW, steps, downStep, interval = 4, 320.0, 12, 2, 300.0
	for k := 1; k <= 3; k++ {
		t.Run(fmt.Sprintf("lease=missk=%d", k), func(t *testing.T) {
			flt, err := StartSimFleet(testEvaluator(t, servers, nil), "timing")
			if err != nil {
				t.Fatal(err)
			}
			defer flt.Close()
			inj, err := faults.NewNetInjector(faults.NetConfig{})
			if err != nil {
				t.Fatal(err)
			}
			coord, err := New(Config{Agents: flt.Refs(), Strategy: StrategyEqual,
				LeaseIv: k, MissK: k, IntervalS: interval, Transport: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			down := strings.TrimPrefix(flt.Refs()[servers-1].URL, "tcp://")
			expired := false
			for s := 0; s < steps; s++ {
				if s == downStep {
					inj.SetDown(down, true)
				}
				now := float64(s) * interval
				res, err := coord.Step(context.Background(), now, capW)
				if err != nil {
					t.Fatal(err)
				}
				expired = expired || !res.Alive[servers-1]
				if err := flt.Tick(now); err != nil {
					t.Fatal(err)
				}
				var sum float64
				for _, a := range flt.Agents {
					sum += a.Status().CapW
				}
				if sum > capW+1e-6 {
					t.Fatalf("step %d: Σ enforced caps %.1f W > cap %.0f W", s, sum, capW)
				}
			}
			if !expired {
				t.Fatal("the blackholed member's membership never expired")
			}
		})
	}
}
