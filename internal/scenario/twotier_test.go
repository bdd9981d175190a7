package scenario

import (
	"testing"
	"time"
)

// A small healthy tree: every interval must grant every shard, hold
// the cap invariant, and keep headroom churn bounded (the stateless
// DP tie-breaks its spare watts unevenly each interval and the
// rebalancer spreads them back — a small constant churn, not drift).
func TestTwoTierDrillSmall(t *testing.T) {
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards: 3, AgentsPerShard: 8, Intervals: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	for _, iv := range res.Intervals {
		if iv.GlobalAlive != 3 {
			t.Fatalf("t=%g: %d shards alive, want 3", iv.T, iv.GlobalAlive)
		}
		if iv.SumBudgetsW <= 0 {
			t.Fatalf("t=%g: nothing granted", iv.T)
		}
	}
	// Identically idle shards: churn stays a small fraction of the cap
	// and every shard keeps at least its floor once settled.
	last := res.Intervals[len(res.Intervals)-1]
	if last.RebalancedW > last.CapW/4 {
		t.Fatalf("idle tree moving %g W of headroom at the end (cap %g W)", last.RebalancedW, last.CapW)
	}
	floor := 8 * 45.0
	for i, b := range res.ShardBudgetW {
		if b < floor-1e-6 {
			t.Fatalf("shard %d ended below its floor: %g W < %g W", i, b, floor)
		}
	}
	if res.Failovers != 0 {
		t.Fatalf("healthy tree recorded %d failovers", res.Failovers)
	}
}

// Saturating one shard must pull headroom toward it within one global
// interval of the demand being visible, and its budget must end above
// the even share.
func TestTwoTierHeadroomRebalance(t *testing.T) {
	opts := TwoTierOptions{
		Shards: 3, AgentsPerShard: 8, Intervals: 14, Seed: 2,
		SaturateStep: 4, SaturateShard: 1,
	}
	res, err := RunTwoTierDrill(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	// The demand jump lands at interval 4 (1-based); the shard reports
	// it that same interval, so the global interval at index 3 is the
	// first that can move headroom toward it.
	if got := res.Intervals[opts.SaturateStep-1].RebalancedW; got <= 0 {
		t.Fatalf("no headroom moved in the saturation interval (moved %g W)", got)
	}
	// Decrease-before-increase defers the granted increase by one
	// interval: the saturated shard's granted budget must be up within
	// one interval of the rebalance decision.
	pre := res.Intervals[opts.SaturateStep-2].BudgetsW[1]
	post := res.Intervals[opts.SaturateStep].BudgetsW[1]
	if post <= pre {
		t.Fatalf("saturated shard's grant did not grow within one interval (%g W -> %g W)", pre, post)
	}
	even := res.Intervals[0].CapW / 3
	if res.ShardBudgetW[1] <= even {
		t.Fatalf("saturated shard ended at %g W, not above the even share %g W", res.ShardBudgetW[1], even)
	}
	if res.ShardBudgetW[1] <= res.ShardBudgetW[0] || res.ShardBudgetW[1] <= res.ShardBudgetW[2] {
		t.Fatalf("saturated shard (%g W) did not end above the idle shards (%g, %g W)",
			res.ShardBudgetW[1], res.ShardBudgetW[0], res.ShardBudgetW[2])
	}
}

// Killing a shard's leading coordinator mid-campaign must fail over to
// the standby — warm, thanks to budgets granted to the whole trunk set
// — without the cluster cap ever being exceeded and without the global
// expiring the shard.
func TestTwoTierShardLeaderFailover(t *testing.T) {
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards: 3, AgentsPerShard: 8, Intervals: 14, Seed: 3,
		KillLeaderStep: 5, KillShard: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Failovers == 0 {
		t.Fatal("standby never took the shard over")
	}
	last := res.Intervals[len(res.Intervals)-1]
	if last.GlobalAlive != 3 {
		t.Fatalf("shard with a live standby expired at the global (%d alive)", last.GlobalAlive)
	}
	if res.ShardBudgetW[0] <= 0 {
		t.Fatal("failed-over shard holds no budget")
	}
}

// Killing a whole shard (both coordinator nodes) must reserve its last
// budget until the reclaim window passes — the watts its still-leased
// agents may draw — and only then return them to the pool, with the
// cap invariant holding throughout.
func TestTwoTierWholeShardLoss(t *testing.T) {
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards: 3, AgentsPerShard: 8, Intervals: 16, Seed: 4,
		KillShardStep: 5, KillShard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	sawReserve := false
	for _, iv := range res.Intervals {
		if iv.ReservedW > 0 {
			sawReserve = true
		}
	}
	if !sawReserve {
		t.Fatal("dead shard's budget was never reserved")
	}
	if res.Stats.ShardExpiries == 0 {
		t.Fatal("global never expired the dead shard")
	}
	if res.Stats.Reclaims == 0 {
		t.Fatal("reserved budget was never reclaimed")
	}
	last := res.Intervals[len(res.Intervals)-1]
	if last.ReservedW != 0 {
		t.Fatalf("reservation still holding %g W at the end", last.ReservedW)
	}
	if last.GlobalAlive != 2 {
		t.Fatalf("%d shards alive at the end, want 2", last.GlobalAlive)
	}
	// The dead shard's agents fenced once their leases lapsed, so the
	// enforced-cap sum fell well below the cap.
	if last.AgentCapSumW >= last.CapW {
		t.Fatalf("agent caps sum to %g W with a dead shard (cap %g W)", last.AgentCapSumW, last.CapW)
	}
}

// The CI-gated scale drill, the two-tier-chaos table entry: 1000
// agents across 8 shards, with shard 3's leader killed, then the whole
// of shard 3, and shard 6 saturated, under -race. Asserts the cap
// invariant every interval and a bounded interval latency.
func TestTwoTierDrill1000Agents(t *testing.T) {
	if testing.Short() {
		t.Skip("scale drill skipped in -short")
	}
	c, err := Generate(Config{Drill: "two-tier-chaos", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTwoTierDrill(*c.TwoTier)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Failovers == 0 {
		t.Fatal("standby never took shard 3 over")
	}
	even := res.Intervals[0].CapW / 8
	if res.ShardBudgetW[6] <= even {
		t.Fatalf("saturated shard ended at %g W, not above even share %g W", res.ShardBudgetW[6], even)
	}
	for _, iv := range res.Intervals {
		if iv.WallNs > int64(30*time.Second) {
			t.Fatalf("interval at t=%g took %v; the two-tier loop is not keeping up",
				iv.T, time.Duration(iv.WallNs))
		}
	}
}

// TestTwoTierClockDrill: the two-tier tree under protocol-clock leases
// survives a global apportioner crash-restart and a shard-leader kill
// with zero invariant violations and no duplicated global intervals
// (the drill itself checks uniqueness and the cap invariant).
func TestTwoTierClockDrill(t *testing.T) {
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards:            2,
		AgentsPerShard:    3,
		Intervals:         14,
		IntervalS:         300,
		LeaseIv:           2,
		RestartGlobalStep: 6,
		KillLeaderStep:    10,
		KillShard:         1,
		Seed:              31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Stats.Rehydrations != 1 {
		t.Fatalf("restarted global rehydrated %d times, want 1", res.Stats.Rehydrations)
	}
	if res.Failovers == 0 {
		t.Fatal("shard-leader kill produced no failover")
	}
}

// A trunk cut with the shard alive: shard 1's trunk servers close at
// interval 4 while both of its coordinators keep stepping, after shard
// 2 saturated at interval 2. The global expires shard 1, reserves its
// budget through the reclaim window and then hands it to the others,
// so shard 1 must have stopped spending by then. A shard that held its
// last budget instead put Σ enforced caps at 5 864 W against the
// 5 200 W cap from t = 3 000 on.
func TestTwoTierTrunkCutShardStopsSpending(t *testing.T) {
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards: 4, AgentsPerShard: 25, Intervals: 16, Seed: 7,
		SaturateStep: 2, SaturateShard: 2,
		CutTrunkStep: 4, KillShard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Stats.ShardExpiries != 1 || res.Stats.Reclaims != 1 {
		t.Fatalf("%d shard expiries and %d reclaims, want the cut shard expired and reclaimed once",
			res.Stats.ShardExpiries, res.Stats.Reclaims)
	}
	if last := res.Intervals[len(res.Intervals)-1]; last.GlobalAlive != 3 {
		t.Fatalf("%d shards alive at the end, want 3", last.GlobalAlive)
	}
}
