package scenario

import (
	"fmt"
	"testing"

	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/trace"
)

// The flat-fleet failover drill at both store settings, a pair on a
// shared in-memory term and a 3-member quorum pool, over a late-morning
// slice of a 30 % peak-shaving schedule: killing the leader leaves the
// fleet leaderless for at most one interval, rank 1 takes over, and
// every granted interval matches the simulation's budgets with the cap
// never exceeded. These are pscluster -ha-kill-step's exit conditions.
func TestHADrillTakeover(t *testing.T) {
	ev, err := evaluator(4)
	if err != nil {
		t.Fatal(err)
	}
	uc, err := ev.UncappedClusterW()
	if err != nil {
		t.Fatal(err)
	}
	load, err := trace.DiurnalLoad(trace.Config{Seed: 7, StepSeconds: 300})
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]trace.Point, len(load))
	for i, p := range load {
		demand[i] = trace.Point{T: p.T, V: p.V * uc}
	}
	caps, err := trace.PeakShaveCaps(demand, 0.3, uc)
	if err != nil {
		t.Fatal(err)
	}
	caps = caps[120:136]
	const killStep = 6
	for _, members := range []int{2, 3} {
		t.Run(fmt.Sprintf("members=%d", members), func(t *testing.T) {
			res, err := RunHADrill(HADrillOptions{
				Eval: ev, Caps: caps, Strategy: ctrlplane.StrategyUtility,
				KillStep: killStep, Members: members,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.TakeoverStep < 0 || res.Leaderless > 1 {
				t.Fatalf("takeover at step %d after %d leaderless intervals; want a takeover within one", res.TakeoverStep, res.Leaderless)
			}
			if !res.Leading || res.Failovers != 1 {
				t.Fatalf("takeover skipped rank 1: member 1 leading=%v with %d failovers", res.Leading, res.Failovers)
			}
			if res.MaxDeltaW != 0 {
				t.Fatalf("granted budgets diverged from %v by %g W over %d steps", res.Oracle, res.MaxDeltaW, res.GrantedSteps)
			}
			if res.CapViolations != 0 {
				t.Fatalf("%d cap violations", res.CapViolations)
			}
			if res.GrantedSteps < len(caps)-1 {
				t.Fatalf("%d of %d steps granted", res.GrantedSteps, len(caps))
			}
		})
	}
}
