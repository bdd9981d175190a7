package ctrlplane

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"powerstruggle/internal/cluster"
)

// This file is the two-tier drill harness behind the hierarchy tests,
// pscluster -shards and the hierarchy-shard-loss scenario family: a
// sharded fleet of demand-driven agents, each shard run by an HA pair
// of shard coordinators over the binary wire, with a global apportioner
// splitting the cluster cap across the shards each interval. The drill
// asserts the tree's safety invariant — the sum of enforced agent caps
// never exceeds the cluster cap, every interval, including through
// shard-coordinator failover — and measures interval latency.

// demandBackend is a workload-driven Backend: the server draws
// min(demand, cap) (never below the idle floor while powered), so a
// saturated server pins its draw at its cap and an idle one leaves
// headroom — the signal the global tier's rebalancer consumes.
type demandBackend struct {
	mu       sync.Mutex
	floorW   float64
	namepW   float64
	demandW  float64
	perfPerW float64
}

func newDemandBackend(demandW float64) *demandBackend {
	return &demandBackend{floorW: 45, namepW: 61, demandW: demandW, perfPerW: 1.0 / 16}
}

// setDemand moves the workload's draw target.
func (b *demandBackend) setDemand(w float64) {
	b.mu.Lock()
	b.demandW = w
	b.mu.Unlock()
}

func (b *demandBackend) Apply(capW float64) (float64, float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	eff := math.Min(capW, b.namepW)
	var draw float64
	switch {
	case eff <= 0:
		draw = 0
	case eff < b.floorW:
		draw = eff
	default:
		draw = math.Min(math.Max(b.demandW, b.floorW), eff)
	}
	perf := (draw - b.floorW) * b.perfPerW
	if perf < 0 {
		perf = 0
	}
	return perf, draw, nil
}

func (b *demandBackend) SoC() float64        { return 0.5 }
func (b *demandBackend) IdleFloorW() float64 { return b.floorW }
func (b *demandBackend) NameplateW() float64 { return b.namepW }

// UtilityCurve characterizes the server's cap → perf capacity on the
// shared 2 W grid, floor to nameplate — 9 points per member, so a
// 125-agent shard's flat DP stays small and its rollup cheap.
func (b *demandBackend) UtilityCurve() ([]cluster.CapPoint, error) {
	var pts []cluster.CapPoint
	for w := b.floorW; w <= b.namepW+1e-9; w += cluster.ServerCapStepW {
		pts = append(pts, cluster.CapPoint{CapW: w, Perf: (w - b.floorW) * b.perfPerW, GridW: w})
	}
	return pts, nil
}

// drillClock is the drill's shared wall clock for HA elections,
// advanced in lockstep with trace time so the leadership TTLs are
// deterministic under -race and fast regardless of interval length.
type drillClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *drillClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *drillClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// shardNode is one shard coordinator process: a coordinator (in an HA
// pair), its ShardCoordinator wrapper, and the trunk server the global
// dials. alive=false models a crashed process — it is not stepped and
// its trunk server is closed.
type shardNode struct {
	coord *Coordinator
	ha    *HA
	sc    *ShardCoordinator
	trunk *BinaryServer
	alive bool
}

// drillShard is one shard of the tree: its fleet slice behind one
// binary listener, and its HA pair of coordinator nodes.
type drillShard struct {
	agents   []*Agent
	backends []*demandBackend
	agentSrv *BinaryServer
	nodes    []*shardNode
}

// TwoTierOptions parameterizes a drill.
type TwoTierOptions struct {
	Shards         int
	AgentsPerShard int
	Intervals      int
	// IntervalS is the control interval in trace seconds (default 300).
	IntervalS float64
	// ClusterCapW defaults to 52 W per agent — between the 45 W idle
	// floor and the 61 W nameplate, so the cap binds.
	ClusterCapW float64
	Seed        int64
	// KillLeaderStep, when > 0, crashes the leading coordinator node of
	// KillShard at the start of that interval (1-based): the shard's
	// standby takes over by election.
	KillLeaderStep int
	// KillShardStep, when > 0, crashes BOTH coordinator nodes of
	// KillShard: the global expires the shard and reserves its budget
	// until the reclaim window passes.
	KillShardStep int
	KillShard     int
	// SaturateStep, when > 0, raises SaturateShard's agents to
	// nameplate demand at that interval: the following global interval
	// must move headroom toward it.
	SaturateStep  int
	SaturateShard int
	// LeaseIv is the draw lease shard coordinators grant, in their own
	// intervals (default 2); the global grants shard budget leases of
	// LeaseIv+1 global intervals, the reclaim window covers both, and
	// everything ages at IntervalS.
	LeaseIv int
	// RestartGlobalStep, when > 0, discards the global apportioner at
	// the start of that interval (1-based) and boots a fresh one with a
	// zero interval counter: it must rehydrate from a shard majority
	// before it may grant again, and the intervals it then mints must
	// never duplicate its predecessor's.
	RestartGlobalStep int
}

func (o *TwoTierOptions) defaults() error {
	if o.Shards <= 0 || o.AgentsPerShard <= 0 || o.Intervals <= 0 {
		return fmt.Errorf("ctrlplane: two-tier drill needs shards, agents, and intervals")
	}
	if o.IntervalS <= 0 {
		o.IntervalS = 300
	}
	if o.ClusterCapW <= 0 {
		o.ClusterCapW = 52 * float64(o.Shards*o.AgentsPerShard)
	}
	if o.LeaseIv <= 0 {
		o.LeaseIv = 2
	}
	if o.KillShard < 0 || o.KillShard >= o.Shards || o.SaturateShard < 0 || o.SaturateShard >= o.Shards {
		return fmt.Errorf("ctrlplane: drill shard target out of range")
	}
	return nil
}

// TwoTierIntervalStat is one interval's measured outcome.
type TwoTierIntervalStat struct {
	T    float64 `json:"t"`
	CapW float64 `json:"capW"`
	// SumBudgetsW sums the global's granted shard budgets this
	// interval; ReservedW is the silent-shard reservation.
	SumBudgetsW float64 `json:"sumBudgetsW"`
	ReservedW   float64 `json:"reservedW"`
	RebalancedW float64 `json:"rebalancedW"`
	// AgentCapSumW sums every agent's enforced cap — the tree's hard
	// invariant is AgentCapSumW ≤ CapW at every interval.
	AgentCapSumW float64 `json:"agentCapSumW"`
	// BudgetsW is the per-shard granted-budget ledger after this
	// interval's grant fan-out.
	BudgetsW    []float64 `json:"budgetsW"`
	GlobalAlive int       `json:"globalAlive"`
	// WallNs is the wall-clock cost of the whole control interval
	// (every shard step plus the global step).
	WallNs int64 `json:"wallNs"`
}

// TwoTierResult is a drill's full outcome.
type TwoTierResult struct {
	Intervals []TwoTierIntervalStat
	// Violations lists every broken invariant (empty on a passing
	// drill).
	Violations []string
	// ShardBudgetW is the final granted budget per shard.
	ShardBudgetW []float64
	// Failovers counts shard-tier leadership takeovers.
	Failovers int
	Stats     GlobalStats
}

// capEps absorbs float accumulation across a fleet-wide sum.
const capEps = 1e-6

// RunTwoTierDrill builds the sharded topology, drives it for the
// configured intervals with the scripted chaos, and checks the cap
// invariant every interval.
func RunTwoTierDrill(opts TwoTierOptions) (*TwoTierResult, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	clock := &drillClock{t: time.Unix(0, 0)}
	termTTL := time.Duration(1.5 * opts.IntervalS * float64(time.Second))

	shards := make([]*drillShard, opts.Shards)
	evenBudget := opts.ClusterCapW / float64(opts.Shards)
	defer func() {
		for _, sh := range shards {
			if sh == nil {
				continue
			}
			for _, nd := range sh.nodes {
				if nd.trunk != nil {
					nd.trunk.Close()
				}
				nd.coord.Close()
			}
			if sh.agentSrv != nil {
				sh.agentSrv.Close()
			}
		}
	}()

	refs := make([]ShardRef, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		sh := &drillShard{}
		shards[s] = sh
		eps := make(map[int]CtrlEndpoint, opts.AgentsPerShard)
		for j := 0; j < opts.AgentsPerShard; j++ {
			id := s*opts.AgentsPerShard + j
			// Idle-but-alive demand just above the floor; saturation is
			// scripted per shard.
			b := newDemandBackend(47)
			a, err := NewAgent(AgentConfig{ID: id, Backend: b, Version: "2tier"})
			if err != nil {
				return nil, err
			}
			sh.agents = append(sh.agents, a)
			sh.backends = append(sh.backends, b)
			eps[id] = a
		}
		srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: eps})
		if err != nil {
			return nil, err
		}
		sh.agentSrv = srv
		agentRefs := make([]AgentRef, 0, opts.AgentsPerShard)
		for _, a := range sh.agents {
			agentRefs = append(agentRefs, AgentRef{ID: a.ID(), URL: srv.URL()})
		}

		elect := NewMemElection()
		ref := ShardRef{ID: s}
		for r := 0; r < 2; r++ {
			coord, err := New(Config{
				Agents:    agentRefs,
				Strategy:  StrategyUtility,
				FloorW:    45,
				LeaseIv:   opts.LeaseIv,
				IntervalS: opts.IntervalS,
				Seed:      opts.Seed + int64(s*2+r),
			})
			if err != nil {
				return nil, err
			}
			ha, err := NewHA(coord, HAConfig{
				ID:       fmt.Sprintf("shard%d-%s", s, string(rune('a'+r))),
				Election: elect,
				TermTTL:  termTTL,
				Clock:    clock.now,
				Priority: r,
			})
			if err != nil {
				return nil, err
			}
			sc, err := NewShardCoordinatorHA(ha, ShardConfig{Shard: s, InitialBudgetW: evenBudget})
			if err != nil {
				return nil, err
			}
			trunk, err := StartBinaryServer("127.0.0.1:0", sc.ShardBinaryConfig(BinaryServerConfig{}))
			if err != nil {
				return nil, err
			}
			sh.nodes = append(sh.nodes, &shardNode{coord: coord, ha: ha, sc: sc, trunk: trunk, alive: true})
			ref.URLs = append(ref.URLs, trunk.URL())
		}
		refs[s] = ref
	}

	// The default reclaim window is the budget lease, LeaseIv+1
	// intervals: it covers the agents' own LeaseIv-interval leases.
	gcfg := GlobalConfig{
		Shards:    refs,
		LeaseIv:   opts.LeaseIv + 1,
		IntervalS: opts.IntervalS,
		Seed:      opts.Seed,
	}
	global, err := NewGlobal(gcfg)
	if err != nil {
		return nil, err
	}
	defer func() { global.Close() }()

	res := &TwoTierResult{}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	now := 0.0
	var lastGIv uint64
	for iv := 1; iv <= opts.Intervals; iv++ {
		now += opts.IntervalS
		clock.advance(time.Duration(opts.IntervalS * float64(time.Second)))

		if iv == opts.RestartGlobalStep {
			// Crash-restart the apex: the replacement boots with a zero
			// interval counter and must recover it from the shards.
			global.Close()
			if global, err = NewGlobal(gcfg); err != nil {
				return nil, err
			}
		}
		if iv == opts.KillLeaderStep {
			sh := shards[opts.KillShard]
			for _, nd := range sh.nodes {
				if _, lead := nd.ha.Leader(); lead && nd.alive {
					nd.alive = false
					nd.trunk.Close()
					break
				}
			}
		}
		if iv == opts.KillShardStep {
			for _, nd := range shards[opts.KillShard].nodes {
				if nd.alive {
					nd.alive = false
					nd.trunk.Close()
				}
			}
		}
		if iv == opts.SaturateStep {
			sh := shards[opts.SaturateShard]
			for j, b := range sh.backends {
				b.setDemand(b.NameplateW())
				if err := sh.agents[j].Refresh(); err != nil {
					return nil, err
				}
			}
		}

		start := time.Now()
		for _, sh := range shards {
			for _, nd := range sh.nodes {
				if !nd.alive {
					continue
				}
				if _, err := nd.sc.Step(ctx, now); err != nil {
					return nil, fmt.Errorf("shard step at t=%g: %w", now, err)
				}
			}
		}
		gres, err := global.Step(ctx, now, opts.ClusterCapW)
		if err != nil {
			return nil, fmt.Errorf("global step at t=%g: %w", now, err)
		}
		wall := time.Since(start)
		if gres.Iv > 0 {
			// Interval-number uniqueness across a restart: a duplicate
			// would let two different budget fan-outs share one lease
			// window.
			if gres.Iv <= lastGIv {
				violate("t=%g: global minted interval %d, already used through %d", now, gres.Iv, lastGIv)
			}
			lastGIv = gres.Iv
		}

		// Dead shards' agents tick on their own wall clocks (the daemon
		// loop); live ones were ticked by their coordinator's scrapes.
		stat := TwoTierIntervalStat{T: now, CapW: opts.ClusterCapW, RebalancedW: gres.RebalancedW,
			ReservedW: gres.ReservedW, WallNs: wall.Nanoseconds()}
		for i := range gres.Budgets {
			if gres.Granted[i] {
				stat.SumBudgetsW += gres.Budgets[i]
			}
			if gres.Alive[i] {
				stat.GlobalAlive++
			}
		}
		for _, sh := range shards {
			for _, a := range sh.agents {
				if err := a.Tick(now); err != nil {
					return nil, err
				}
				stat.AgentCapSumW += a.CapW()
			}
		}
		// The tree's invariants, checked every interval.
		if stat.SumBudgetsW+gres.ReservedW > opts.ClusterCapW+capEps {
			violate("t=%g: granted %g W + reserved %g W exceeds cluster cap %g W",
				now, stat.SumBudgetsW, gres.ReservedW, opts.ClusterCapW)
		}
		var ledger float64
		for i := range refs {
			w := global.GrantedShardW(i)
			stat.BudgetsW = append(stat.BudgetsW, w)
			ledger += w
		}
		if ledger > opts.ClusterCapW+capEps {
			violate("t=%g: shard budget ledger sums to %g W over cluster cap %g W", now, ledger, opts.ClusterCapW)
		}
		if stat.AgentCapSumW > opts.ClusterCapW+capEps {
			violate("t=%g: enforced agent caps sum to %g W over cluster cap %g W",
				now, stat.AgentCapSumW, opts.ClusterCapW)
		}
		res.Intervals = append(res.Intervals, stat)
	}

	for i := range refs {
		res.ShardBudgetW = append(res.ShardBudgetW, global.GrantedShardW(i))
	}
	for _, sh := range shards {
		for _, nd := range sh.nodes {
			res.Failovers += nd.ha.Failovers()
		}
	}
	res.Stats = global.Stats()
	return res, nil
}
