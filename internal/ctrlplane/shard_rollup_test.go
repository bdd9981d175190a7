package ctrlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"powerstruggle/internal/cluster"
)

// rollupMember is a scripted CtrlEndpoint for the shard rollup tests:
// it acknowledges every grant and reports whatever curve, confidence
// and liveness the test last set.
type rollupMember struct {
	id int

	mu     sync.Mutex
	curve  []cluster.CapPoint
	conf   float64
	cells  int
	down   bool
	epoch  uint64
	seq    uint64
	capW   float64
	seenIv uint64
}

const rollupFloorW = 45.0

// memberCurve is a nine-point curve from the 45 W floor to a 61 W
// nameplate whose perf scales with gain.
func memberCurve(gain float64) []cluster.CapPoint {
	var pts []cluster.CapPoint
	for k := 0; k < 9; k++ {
		w := rollupFloorW + float64(k)*cluster.ServerCapStepW
		pts = append(pts, cluster.CapPoint{CapW: w, Perf: gain * float64(k) / 8, GridW: w})
	}
	return pts
}

func (m *rollupMember) set(f func(m *rollupMember)) {
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
}

func (m *rollupMember) Scrape(t float64, hasT bool) (Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return Report{}, fmt.Errorf("member %d is down", m.id)
	}
	return Report{V: ProtocolV, Server: m.id, Epoch: m.epoch, Seq: m.seq, CapW: m.capW,
		GridW: rollupFloorW + 1, SoC: 0.5, IdleFloorW: rollupFloorW, NameplateW: 61,
		UtilityCurve: m.curve, CurveVer: curveVersion(m.curve), CurveConf: m.conf, CurveCells: m.cells, Iv: m.seenIv}, nil
}

func (m *rollupMember) Assign(req AssignRequest) (AssignResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return AssignResponse{}, fmt.Errorf("member %d is down", m.id)
	}
	m.epoch, m.seq, m.capW, m.seenIv = req.Epoch, req.Seq, req.CapW, req.Iv
	return AssignResponse{V: ProtocolV, Server: m.id, Epoch: req.Epoch, Seq: req.Seq, Applied: true,
		CapW: req.CapW, GridW: rollupFloorW + 1, SoC: 0.5, Iv: req.Iv}, nil
}

func (m *rollupMember) Renew(req LeaseRequest) (LeaseResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return LeaseResponse{}, fmt.Errorf("member %d is down", m.id)
	}
	m.seenIv = req.Iv
	return LeaseResponse{V: ProtocolV, Epoch: m.epoch, Server: m.id, CapW: m.capW,
		ExpiresIv: req.Iv + req.LeaseIv, Iv: req.Iv}, nil
}

// rollupShard is one shard's worth of scripted members behind one
// listener, with as many coordinator nodes over them as a test asks for.
type rollupShard struct {
	members []*rollupMember
	refs    []AgentRef
}

func newRollupShard(t testing.TB, n int) *rollupShard {
	t.Helper()
	sh := &rollupShard{}
	eps := map[int]CtrlEndpoint{}
	for i := 0; i < n; i++ {
		m := &rollupMember{id: i, curve: memberCurve(1 + float64(i%5))}
		sh.members = append(sh.members, m)
		eps[i] = m
	}
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	for i := range sh.members {
		sh.refs = append(sh.refs, AgentRef{ID: i, URL: srv.URL()})
	}
	return sh
}

func (sh *rollupShard) coordinator(t testing.TB) *Coordinator {
	t.Helper()
	c, err := New(Config{Agents: sh.refs, Strategy: StrategyUtility, FloorW: rollupFloorW, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// want is the rollup the shard must be serving for the members' current
// curves (every one of them live and trusted).
func (sh *rollupShard) want(skip ...int) []cluster.CapPoint {
	var curves [][]cluster.CapPoint
next:
	for i, m := range sh.members {
		for _, s := range skip {
			if s == i {
				continue next
			}
		}
		m.mu.Lock()
		curves = append(curves, m.curve)
		m.mu.Unlock()
	}
	return cluster.DownsampleCurve(cluster.RollupCurves(rollupFloorW, curves), 256)
}

func shardCurve(t *testing.T, sc *ShardCoordinator) []cluster.CapPoint {
	t.Helper()
	rep, err := sc.Report(ShardReportRequest{V: ProtocolV, Shard: sc.cfg.Shard})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Curve
}

func sameRollup(t *testing.T, what string, got, want []cluster.CapPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: shard serves %d curve points, want %d", what, len(got), len(want))
	}
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("%s: curve point %d is %+v, want %+v", what, l, got[l], want[l])
		}
	}
}

// haShardPair is a leader and a warm standby over one rollupShard, on
// one injected clock.
func haShardPair(t *testing.T, sh *rollupShard) (nodes [2]*ShardCoordinator, clk *fakeClock) {
	t.Helper()
	clk = &fakeClock{t: t0}
	store := NewMemElection()
	for r := range nodes {
		ha, err := NewHA(sh.coordinator(t), HAConfig{ID: fmt.Sprintf("node-%d", r), Election: store,
			TermTTL: 450 * time.Second, Clock: clk.Now, Priority: r})
		if err != nil {
			t.Fatal(err)
		}
		if nodes[r], err = NewShardCoordinatorHA(ha, ShardConfig{Shard: 0, InitialBudgetW: 52 * float64(len(sh.members))}); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, clk
}

func stepShard(t *testing.T, sc *ShardCoordinator, now float64) {
	t.Helper()
	if _, err := sc.Step(context.Background(), now); err != nil {
		t.Fatal(err)
	}
}

// With static member curves a node step does no DP layer work and the
// report's curve path allocates nothing from the second step on — on
// the leader and on the observing standby, which used to pay for a full
// rollup each, every interval.
func TestShardReportStaticCurves(t *testing.T) {
	sh := newRollupShard(t, 12)
	nodes, clk := haShardPair(t, sh)
	var first [2][]cluster.CapPoint
	for iv := 1; iv <= 5; iv++ {
		now := 300 * float64(iv)
		clk.Set(wallAt(now))
		for r, sc := range nodes {
			stepShard(t, sc, now)
			curve := shardCurve(t, sc)
			if iv == 1 {
				first[r] = curve
				sameRollup(t, fmt.Sprintf("node %d first step", r), curve, sh.want())
				continue
			}
			if n := sc.c.dp.LastRecomputed(); n != 0 {
				t.Fatalf("interval %d node %d: static curves rebuilt %d DP layers", iv, r, n)
			}
			if &curve[0] != &first[r][0] {
				t.Fatalf("interval %d node %d: static curves produced a new rollup slice", iv, r)
			}
			budget := sc.BudgetW()
			if avg := testing.AllocsPerRun(10, func() { sc.refreshReport(now, budget) }); avg != 0 {
				t.Fatalf("interval %d node %d: refreshing the report allocates %.1f times, want 0", iv, r, avg)
			}
		}
	}
	if _, leading := nodes[0].ha.Leader(); !leading {
		t.Fatal("node 0 never led")
	}
	if _, leading := nodes[1].ha.Leader(); leading {
		t.Fatal("node 1 was meant to observe")
	}
}

// Everything that changes a live member's effective curve changes the
// curve the shard serves in that same step: a new curve, a learned
// curve dropping below the confidence floor and clearing it again, a
// lease expiry, a rejoin.
func TestShardReportTracksMemberChanges(t *testing.T) {
	sh := newRollupShard(t, 6)
	sc, err := NewShardCoordinator(sh.coordinator(t), ShardConfig{Shard: 0, InitialBudgetW: 52 * 6})
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	step := func() []cluster.CapPoint {
		now += 300
		stepShard(t, sc, now)
		return shardCurve(t, sc)
	}
	sameRollup(t, "boot", step(), sh.want())
	sameRollup(t, "static", step(), sh.want())

	sh.members[2].set(func(m *rollupMember) { m.curve = memberCurve(9) })
	sameRollup(t, "member 2 changed its curve", step(), sh.want())
	if n := sc.c.dp.LastRecomputed(); n != 0 {
		// The step's own apportion already rebuilt members 2..5; the
		// read-out that follows finds the table current.
		t.Fatalf("rollup after the step's apportion rebuilt %d layers again", n)
	}

	// A learner below the floor is curveless to the shard: no aggregate.
	sh.members[4].set(func(m *rollupMember) { m.conf, m.cells = 0.5, 3 })
	if got := step(); len(got) != 0 {
		t.Fatalf("a below-floor learner left a %d-point aggregate, want none", len(got))
	}
	sh.members[4].set(func(m *rollupMember) { m.conf, m.cells = 0.9, 8 })
	sameRollup(t, "learner cleared the floor", step(), sh.want())

	// MissK (3) silent scrapes expire member 1; the survivors' rollup is
	// served in the expiring step, and the full one in the rejoining step.
	sh.members[1].set(func(m *rollupMember) { m.down = true })
	sameRollup(t, "first miss", step(), sh.want())
	sameRollup(t, "second miss", step(), sh.want())
	sameRollup(t, "lease expiry", step(), sh.want(1))
	sh.members[1].set(func(m *rollupMember) { m.down = false })
	sameRollup(t, "rejoin", step(), sh.want())
}

// A promoted standby serves a current rollup on its first leading
// step: its table was kept warm by observing, including a curve change
// that landed while it was still the standby.
func TestShardPromotedStandbyServesCurrentRollup(t *testing.T) {
	sh := newRollupShard(t, 8)
	nodes, clk := haShardPair(t, sh)
	now := 0.0
	for iv := 1; iv <= 3; iv++ {
		now += 300
		clk.Set(wallAt(now))
		stepShard(t, nodes[0], now)
		stepShard(t, nodes[1], now)
	}
	sh.members[5].set(func(m *rollupMember) { m.curve = memberCurve(7) })
	now += 300
	clk.Set(wallAt(now))
	stepShard(t, nodes[0], now)
	stepShard(t, nodes[1], now)
	sameRollup(t, "standby observed the change", shardCurve(t, nodes[1]), sh.want())

	// The leader dies; its term lapses; the standby wins the next one.
	for iv := 0; iv < 3; iv++ {
		now += 300
		clk.Set(wallAt(now))
		stepShard(t, nodes[1], now)
		rep, err := nodes[1].Report(ShardReportRequest{V: ProtocolV, Shard: 0})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Leading {
			continue
		}
		sameRollup(t, "first leading step", rep.Curve, sh.want())
		if n := nodes[1].c.dp.LastRecomputed(); n != 0 {
			t.Fatalf("promotion rebuilt %d DP layers over unchanged curves", n)
		}
		return
	}
	t.Fatal("standby never took the shard over")
}

// Report hands server goroutines the memoized curve while Step keeps
// running and member curves keep changing: the slice is replaced, never
// written in place, so readers see whole rollups. Run under -race.
func TestShardReportConcurrentWithStep(t *testing.T) {
	sh := newRollupShard(t, 10)
	sc, err := NewShardCoordinator(sh.coordinator(t), ShardConfig{Shard: 0, InitialBudgetW: 52 * 10})
	if err != nil {
		t.Fatal(err)
	}
	stepShard(t, sc, 300)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep, err := sc.Report(ShardReportRequest{V: ProtocolV, Shard: 0})
				if err == nil {
					err = rep.Validate()
				}
				if err == nil && len(rep.Curve) != 81 {
					err = fmt.Errorf("torn rollup: %d points", len(rep.Curve))
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				// Encode it, as the trunk server does.
				encode(nil, &rep)
			}
		}()
	}
	for iv := 2; iv <= 40; iv++ {
		if iv%2 == 0 {
			sh.members[iv%10].set(func(m *rollupMember) { m.curve = memberCurve(float64(iv)) })
		}
		stepShard(t, sc, 300*float64(iv))
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	sameRollup(t, "after the churn", shardCurve(t, sc), sh.want())
}

// BenchmarkShardReportStaticCurves is what a node of the two-tier tree
// pays per interval to refresh its trunk report when no member curve
// moved — 125 members, the tree-1k-8 shard: a change scan over the
// curves and no allocation.
func BenchmarkShardReportStaticCurves(b *testing.B) {
	sh := newRollupShard(b, 125)
	sc, err := NewShardCoordinator(sh.coordinator(b), ShardConfig{Shard: 0, InitialBudgetW: 52 * 125})
	if err != nil {
		b.Fatal(err)
	}
	for iv := 1; iv <= 2; iv++ {
		if _, err := sc.Step(context.Background(), 300*float64(iv)); err != nil {
			b.Fatal(err)
		}
	}
	budget := sc.BudgetW()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.refreshReport(600, budget)
	}
}
