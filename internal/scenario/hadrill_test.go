package scenario

import (
	"fmt"
	"testing"

	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/exp"
)

// The flat-fleet failover drill at both store settings, a pair on a
// shared in-memory term and a 3-member quorum pool, over a late-morning
// slice of a 30 % peak-shaving schedule: killing the leader leaves the
// fleet leaderless for at most one interval, rank 1 takes over, and
// every granted interval matches the simulation's budgets with the cap
// never exceeded. These are the ha-pair and ha-quorum drills' exit
// conditions, which the drill reports as Violations.
func TestHADrillTakeover(t *testing.T) {
	env, err := exp.NewEnv()
	if err != nil {
		t.Fatal(err)
	}
	ev, caps, err := shaveSchedule(env, 4, 7, 0.3)
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
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.TakeoverStep != killStep+1 || res.Leaderless != 1 {
				t.Errorf("takeover at step %d after %d leaderless intervals; want step %d after one", res.TakeoverStep, res.Leaderless, killStep+1)
			}
			if res.GrantedSteps < len(caps)-1 {
				t.Fatalf("%d of %d steps granted", res.GrantedSteps, len(caps))
			}
		})
	}
}
