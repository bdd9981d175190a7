package ctrlplane

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
)

// recordingEndpoint is an agent that keeps the report of its last
// scrape: the whole curve, as the agent handed it to the listener.
type recordingEndpoint struct {
	*Agent
	mu   sync.Mutex
	last Report
}

func (e *recordingEndpoint) Scrape(t float64, hasT bool) (Report, error) {
	rep, err := e.Agent.Scrape(t, hasT)
	e.mu.Lock()
	e.last = rep
	e.mu.Unlock()
	return rep, err
}

func (e *recordingEndpoint) lastReport() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// perfAtFloor is a demand backend that delivers some performance even at its
// idle floor, so a learner's every probe is an observation.
type perfAtFloor struct{ *demandBackend }

func (b perfAtFloor) Apply(capW float64) (float64, float64, error) {
	perf, grid, err := b.demandBackend.Apply(capW)
	return perf + 0.25, grid, err
}

// TestUnchangedCurvesStayHome counts what crosses the member wire: static
// and learning agents share one listener, and from the second interval
// on a scrape reply carries points only for the curves whose version
// moved since the coordinator last held them, a learner's changed curve
// is the one the coordinator holds by the end of that same interval, and
// the budgets are the full DP's over the curves the agents reported
// in-process, bit for bit.
func TestUnchangedCurvesStayHome(t *testing.T) {
	const n = 12
	learner := func(i int) bool { return i%4 == 0 }
	backends := make([]*demandBackend, n)
	rec := make([]*recordingEndpoint, n)
	eps := make(map[int]CtrlEndpoint, n)
	for i := range rec {
		backends[i] = newDemandBackend(61)
		cfg := AgentConfig{ID: i, Backend: backends[i]}
		if learner(i) {
			cfg.Backend = perfAtFloor{backends[i]}
			cfg.Learn = &cf.OnlineConfig{Epsilon: 0.9, Seed: int64(i + 1)}
		}
		a, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec[i] = &recordingEndpoint{Agent: a}
		eps[i] = rec[i]
	}
	url := serveEndpoints(t, eps)
	refs := make([]AgentRef, n)
	for i := range refs {
		refs[i] = AgentRef{ID: i, URL: url}
	}
	// Every learned curve enters the DP, whatever its confidence.
	c, err := New(Config{Agents: refs, Strategy: StrategyUtility, FloorW: 45, CurveConfFloor: -1, LeaseIv: 2, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	held := make([]uint64, n)
	moved := 0
	for iv := 1; iv <= 12; iv++ {
		for i, b := range backends {
			if learner(i) {
				b.setDemand(47 + 2*float64((iv+i)%7))
			}
		}
		capW := float64(n) * (50 + float64(iv%3))
		res, err := c.Step(context.Background(), 300*float64(iv), capW)
		if err != nil {
			t.Fatal(err)
		}
		if res.ScrapeErrs != 0 || res.AssignErrs != 0 {
			t.Fatalf("interval %d: %d scrape, %d assign errors: %v", iv, res.ScrapeErrs, res.AssignErrs, res.Err)
		}
		slots := c.scratch.scrape.groups[0].scrape.Results
		curves := make([][]cluster.CapPoint, n)
		for i, e := range rec {
			rep, slot := e.lastReport(), slots[i].Report
			curves[i] = rep.UtilityCurve
			if slot.CurveVer != rep.CurveVer {
				t.Fatalf("interval %d member %d: slot carries version %#x, the agent reported %#x", iv, i, slot.CurveVer, rep.CurveVer)
			}
			if m := c.members[i]; m.curveVer != rep.CurveVer || !slices.Equal(m.curve, rep.UtilityCurve) {
				t.Fatalf("interval %d member %d: the coordinator holds version %#x, the agent reported %#x", iv, i, m.curveVer, rep.CurveVer)
			}
			if iv == 1 {
				held[i] = rep.CurveVer
				continue
			}
			if rep.CurveVer == 0 {
				t.Fatalf("interval %d member %d reported no curve", iv, i)
			}
			if shipped, changed := slot.UtilityCurve != nil, rep.CurveVer != held[i]; shipped != changed {
				t.Fatalf("interval %d member %d: points on the wire %v, curve changed %v", iv, i, shipped, changed)
			} else if changed && !learner(i) {
				t.Fatalf("interval %d: static member %d's curve changed", iv, i)
			} else if changed {
				moved++
			}
			held[i] = rep.CurveVer
		}
		if iv == 1 {
			continue
		}
		want, _, _ := cluster.ApportionCurves(capW, 45, curves)
		for i := range want {
			if res.Budgets[i] != want[i] {
				t.Fatalf("interval %d member %d: granted %v W, the full DP over the reported curves says %v W", iv, i, res.Budgets[i], want[i])
			}
		}
	}
	if moved == 0 {
		t.Fatal("no learner's curve ever changed: nothing was counted")
	}
	t.Logf("%d learned curves crossed the wire after the first interval; no static one did", moved)
}

// trunkNode is one shard coordinator behind a trunk listener that
// counts the rollup points it sends.
type trunkNode struct {
	sc     *ShardCoordinator
	srv    *BinaryServer
	points atomic.Int64
}

func serveTrunk(t *testing.T, sc *ShardCoordinator) *trunkNode {
	t.Helper()
	nd := &trunkNode{sc: sc}
	var err error
	nd.srv, err = StartBinaryServer("127.0.0.1:0", BinaryServerConfig{
		ShardReport: func(req ShardReportRequest) (ShardReport, error) {
			rep, err := sc.Report(req)
			nd.points.Add(int64(len(rep.Curve)))
			return rep, err
		},
		ShardBudget: sc.ApplyBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.srv.Close)
	return nd
}

// TestTrunkFailoverResendsNoRollup: the global holds shard 0's rollup by
// its version, so when the shard's leader dies the promoted standby —
// whose rollup over the same member curves has the same version —
// answers without the points, and the budgets do not move. A member
// curve that changes then moves the rollup's version, and the new rollup
// crosses the trunk in that interval.
func TestTrunkFailoverResendsNoRollup(t *testing.T) {
	pair := newRollupShard(t, 8)
	nodes, clk := haShardPair(t, pair)
	lone := newRollupShard(t, 8)
	for _, m := range lone.members {
		m.curve = memberCurve(2)
	}
	single, err := NewShardCoordinator(lone.coordinator(t), ShardConfig{Shard: 1, InitialBudgetW: 52 * 8})
	if err != nil {
		t.Fatal(err)
	}
	trunk := []*trunkNode{serveTrunk(t, nodes[0]), serveTrunk(t, nodes[1]), serveTrunk(t, single)}
	g, err := NewGlobal(GlobalConfig{IntervalS: 300, Shards: []ShardRef{
		{ID: 0, URLs: []string{trunk[0].srv.URL(), trunk[1].srv.URL()}},
		{ID: 1, URLs: []string{trunk[2].srv.URL()}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const capW = 52 * 16
	now := 0.0
	live := trunk
	// interval steps every live node, then the global, and returns the
	// global's result and the rollup points each live node sent.
	interval := func() (GlobalStepResult, []int64) {
		t.Helper()
		now += 300
		clk.Set(wallAt(now))
		for _, nd := range live {
			stepShard(t, nd.sc, now)
			nd.points.Store(0)
		}
		res, err := g.Step(context.Background(), now, capW)
		if err != nil {
			t.Fatal(err)
		}
		sent := make([]int64, len(live))
		for i, nd := range live {
			sent[i] = nd.points.Load()
		}
		return res, sent
	}
	var steady GlobalStepResult
	for iv := 1; iv <= 4; iv++ {
		var sent []int64
		steady, sent = interval()
		if iv > 1 && (sent[0] != 0 || sent[2] != 0) {
			t.Fatalf("steady interval %d: leaders sent %d and %d rollup points", iv, sent[0], sent[2])
		}
		sameRollup(t, fmt.Sprintf("interval %d: the global's held rollup", iv), g.shards[0].report.Curve, pair.want())
	}
	if !slices.Equal(steady.Alive, []bool{true, true}) || steady.ScrapeErrs != 0 {
		t.Fatalf("warm-up: alive %v, %d scrape errors (%v)", steady.Alive, steady.ScrapeErrs, steady.Err)
	}
	held := g.shards[0].report.CurveVer
	if rep, _ := nodes[1].Report(ShardReportRequest{V: ProtocolV, Shard: 0}); held == 0 || rep.CurveVer != held {
		t.Fatalf("the standby's rollup has version %#x, the global holds %#x", rep.CurveVer, held)
	}

	// Shard 0's leader dies; its term lapses and the standby takes over.
	trunk[0].srv.Close()
	live = trunk[1:]
	promoted := false
	for iv := 0; iv < 4 && !promoted; iv++ {
		res, sent := interval()
		if res.ScrapeErrs != 0 {
			continue // the standby has not won the term yet
		}
		promoted = true
		if sent[0] != 0 {
			t.Fatalf("the promoted standby sent %d rollup points, the global already held version %#x", sent[0], held)
		}
		if g.shards[0].report.CurveVer != held || !slices.Equal(res.Budgets, steady.Budgets) {
			t.Fatalf("after failover: global holds %#x (was %#x), budgets %v (were %v)", g.shards[0].report.CurveVer, held, res.Budgets, steady.Budgets)
		}
		sameRollup(t, "after failover: the global's held rollup", g.shards[0].report.Curve, pair.want())
	}
	if !promoted {
		t.Fatal("the standby never answered the trunk as leader")
	}

	// A member curve moves: so does the rollup's version, and the new
	// rollup arrives in the same interval.
	pair.members[3].set(func(m *rollupMember) { m.curve = memberCurve(9) })
	_, sent := interval()
	rep, err := nodes[1].Report(ShardReportRequest{V: ProtocolV, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	sameRollup(t, "new leader's rollup", rep.Curve, pair.want())
	if sent[0] != int64(len(rep.Curve)) || rep.CurveVer == held || g.shards[0].report.CurveVer != rep.CurveVer {
		t.Fatalf("changed rollup: %d points sent (want %d), version %#x (was %#x), global holds %#x",
			sent[0], len(rep.Curve), rep.CurveVer, held, g.shards[0].report.CurveVer)
	}
	sameRollup(t, "global's rollup", g.shards[0].report.Curve, rep.Curve)
}

// A slot that answers with a version but no points, for a version its
// scraper does not hold, is a failed scrape — no correct agent sends
// one — and the coordinator keeps the curve it holds.
func TestUnheldVersionFailsTheScrape(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	var tamper, never atomic.Bool
	url := serveTampered(t, map[int]CtrlEndpoint{0: a}, &tamper, &never,
		func(r []ScrapeResult) []ScrapeResult {
			r[0].Report.UtilityCurve, r[0].Report.CurveVer = nil, r[0].Report.CurveVer^1
			return r
		}, nil)
	coord, err := New(Config{Agents: []AgentRef{{ID: 0, URL: url}}, Strategy: StrategyEqual, LeaseIv: 2, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if res, err := coord.Step(context.Background(), 0, 100); err != nil || res.ScrapeErrs != 0 {
		t.Fatalf("honest interval: %+v, %v", res, err)
	}
	m := coord.members[0]
	held, curve := m.curveVer, m.curve
	tamper.Store(true)
	res, err := coord.Step(context.Background(), 300, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrapeErrs != 1 || res.Err == nil || !strings.Contains(res.Err.Error(), "kept back") {
		t.Fatalf("unheld version: %d scrape errors (%v), want the scrape failed", res.ScrapeErrs, res.Err)
	}
	if m.curveVer != held || held == 0 || &m.curve[0] != &curve[0] {
		t.Fatalf("unheld version moved the held curve: version %#x, was %#x", m.curveVer, held)
	}
}
