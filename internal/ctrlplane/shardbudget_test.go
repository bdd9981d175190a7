package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

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

// A shard whose budget lease lapses must report itself starved and
// stop spending: it steps under 0 W, its last grant kept on the ledger.
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
	coord, err := New(Config{Agents: []AgentRef{{ID: 0, URL: srv.URL()}}, LeaseIv: 20, MissK: 20, IntervalS: 300})
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
	// nothing granted.
	res, err := sc.Step(ctx, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Starved() {
		t.Fatal("lapsed budget lease not reported starved")
	}
	if res.CapW != 0 || res.Budgets[0] != 0 {
		t.Fatalf("starved shard stepped under %g W and granted %g W", res.CapW, res.Budgets[0])
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

// The budget lease runs on the shard's own clock: however far the
// global's clock is from the shard's, the shard is starved exactly when
// LeaseIv of its own intervals pass without a grant.
func TestShardBudgetLeaseOnShardClock(t *testing.T) {
	const ivS, leaseIv, lastGrant = 300, 2, 2
	for _, off := range []float64{-1000, 0, 1000} {
		t.Run(fmt.Sprintf("global%+.0fs", off), func(t *testing.T) {
			a, err := NewAgent(AgentConfig{ID: 0, Backend: newDemandBackend(47)})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: map[int]CtrlEndpoint{0: a}})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			coord, err := New(Config{Agents: []AgentRef{{ID: 0, URL: srv.URL()}}, LeaseIv: 20, MissK: 20, IntervalS: ivS})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			sc, err := NewShardCoordinator(coord, ShardConfig{Shard: 0, InitialBudgetW: 100})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= lastGrant+leaseIv+1; k++ {
				now := 5000 + float64(k)*ivS
				if _, err := sc.Step(t.Context(), now); err != nil {
					t.Fatal(err)
				}
				if want := k >= lastGrant+leaseIv; sc.Starved() != want {
					t.Fatalf("step %d: starved=%v, want %v", k, sc.Starved(), want)
				}
				if k > lastGrant {
					continue
				}
				iv := uint64(k + 1)
				if _, err := sc.ApplyBudget(ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: iv, Shard: 0,
					T: now + off, CapW: 90, Iv: iv, LeaseIv: leaseIv, IvS: ivS}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
