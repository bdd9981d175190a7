package ctrlplane

import (
	"context"
	"errors"
	"sync/atomic"
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

// The CI-gated scale drill: 1000 agents across 8 shards, with a shard
// leader killed and a shard saturated mid-run, under -race. Asserts
// the cap invariant every interval and a bounded interval latency.
func TestTwoTierDrill1000Agents(t *testing.T) {
	if testing.Short() {
		t.Skip("scale drill skipped in -short")
	}
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards: 8, AgentsPerShard: 125, Intervals: 16, Seed: 7,
		KillLeaderStep: 5, KillShard: 3,
		SaturateStep: 6, SaturateShard: 6,
	})
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

// Direct trunk-unit coverage: ShardBudget fencing mirrors agent
// assignment fencing.
func TestShardBudgetFencing(t *testing.T) {
	b := newDemandBackend(47)
	a, err := NewAgent(AgentConfig{ID: 0, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: map[int]CtrlEndpoint{0: a}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord, err := New(Config{Agents: []AgentRef{{ID: 0, URL: srv.URL()}}, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sc, err := NewShardCoordinator(coord, ShardConfig{Shard: 4, InitialBudgetW: 100})
	if err != nil {
		t.Fatal(err)
	}

	grant := func(epoch, seq uint64, capW float64) ShardBudgetResponse {
		resp, err := sc.ApplyBudget(ShardBudgetRequest{
			V: ProtocolV, Epoch: epoch, Seq: seq, Shard: 4, T: 300, CapW: capW,
			Iv: seq, LeaseIv: 3, IvS: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := grant(2, 5, 80); !resp.Applied || sc.BudgetW() != 80 {
		t.Fatalf("fresh grant not applied: %+v (budget %g)", resp, sc.BudgetW())
	}
	// A stale seq from the same epoch is refused with the ledger echoed.
	if resp := grant(2, 4, 200); resp.Applied || resp.Epoch != 2 || resp.Seq != 5 || resp.CapW != 80 {
		t.Fatalf("stale grant handled wrong: %+v", resp)
	}
	// A duplicate of the in-force grant satisfies the global's granted
	// criterion without Applied.
	if resp := grant(2, 5, 80); resp.Applied || resp.Epoch != 2 || resp.CapW != 80 {
		t.Fatalf("duplicate grant handled wrong: %+v", resp)
	}
	// An older epoch is fenced outright.
	if resp := grant(1, 99, 500); resp.Applied || sc.BudgetW() != 80 {
		t.Fatalf("old-epoch grant landed: %+v (budget %g)", resp, sc.BudgetW())
	}
	// A newer epoch takes over.
	if resp := grant(3, 1, 90); !resp.Applied || sc.BudgetW() != 90 {
		t.Fatalf("new-epoch grant refused: %+v (budget %g)", resp, sc.BudgetW())
	}
	if sc.Starved() {
		t.Fatal("freshly granted shard reports starved")
	}

	// A mismatched shard id is an error, not a silent ack.
	if _, err := sc.ApplyBudget(ShardBudgetRequest{V: ProtocolV, Epoch: 9, Seq: 9, Shard: 0, T: 1, CapW: 1, Iv: 9, LeaseIv: 1, IvS: 1}); err == nil {
		t.Fatal("grant for another shard accepted")
	}
	// Report before the first step is refused (nothing to summarize).
	if _, err := sc.Report(ShardReportRequest{V: ProtocolV, Shard: 4}); err == nil {
		t.Fatal("report served before the first control interval")
	}
}

// A shard whose budget lease lapses must hold its last budget and
// report itself starved — never grow.
func TestShardBudgetLeaseLapse(t *testing.T) {
	b := newDemandBackend(47)
	a, err := NewAgent(AgentConfig{ID: 0, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: map[int]CtrlEndpoint{0: a}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord, err := New(Config{Agents: []AgentRef{{ID: 0, URL: srv.URL()}}, LeaseIv: 20, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sc, err := NewShardCoordinator(coord, ShardConfig{Shard: 0, InitialBudgetW: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ApplyBudget(ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: 1, Shard: 0, T: 300, CapW: 90, Iv: 1, LeaseIv: 2, IvS: 300}); err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	if _, err := sc.Step(ctx, 600); err != nil {
		t.Fatal(err)
	}
	if sc.Starved() {
		t.Fatal("starved inside the lease window")
	}
	// Two whole intervals past the grant with no fresh one: starved,
	// budget held.
	if _, err := sc.Step(ctx, 1200); err != nil {
		t.Fatal(err)
	}
	if !sc.Starved() {
		t.Fatal("lapsed budget lease not reported starved")
	}
	if sc.BudgetW() != 90 {
		t.Fatalf("starved shard moved its budget to %g W", sc.BudgetW())
	}
	rep, err := sc.Report(ShardReportRequest{V: ProtocolV, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Starved {
		t.Fatal("trunk report does not carry the starved flag")
	}
	// A fresh grant clears starvation.
	if _, err := sc.ApplyBudget(ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: 2, Shard: 0, T: 1200, CapW: 95, Iv: 4, LeaseIv: 2, IvS: 300}); err != nil {
		t.Fatal(err)
	}
	if sc.Starved() || sc.BudgetW() != 95 {
		t.Fatalf("fresh grant did not clear starvation (starved=%v budget=%g)", sc.Starved(), sc.BudgetW())
	}
}

// GlobalConfig's RPC fields behave as Config's: left zero, the trunk
// retry budget is Config's default of 2, so one failed shard scrape
// costs a retry, not a missed heartbeat.
func TestGlobalRetriesByDefault(t *testing.T) {
	var reports atomic.Int64
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{
		ShardReport: func(req ShardReportRequest) (ShardReport, error) {
			if reports.Add(1) == 1 {
				return ShardReport{}, errors.New("transient")
			}
			return ShardReport{V: ProtocolV, Shard: req.Shard, Epoch: 1, Leading: true, Agents: 1,
				FloorW: 50, DemandW: 100, UsedW: 80, CapW: 100, BudgetW: 100}, nil
		},
		ShardBudget: func(req ShardBudgetRequest) (ShardBudgetResponse, error) {
			return ShardBudgetResponse{V: ProtocolV, Shard: req.Shard, Epoch: req.Epoch, Seq: req.Seq,
				Applied: true, CapW: req.CapW, Iv: req.Iv}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	g, err := NewGlobal(GlobalConfig{Shards: []ShardRef{{ID: 0, URLs: []string{srv.URL()}}}, IntervalS: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := g.Step(context.Background(), 0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrapeErrs != 0 || !res.Alive[0] {
		t.Fatalf("one failed trunk scrape under the default retry budget: %d scrape errors (%v)", res.ScrapeErrs, res.Err)
	}
	if got := reports.Load(); got != 2 {
		t.Fatalf("%d shard-report attempts, want 2 (one failure, one retry)", got)
	}
}
