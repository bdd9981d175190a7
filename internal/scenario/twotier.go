package scenario

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
)

// This file is the two-tier drill harness behind the hierarchy tests,
// the two-tier drills and the hierarchy scenario families: a
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

// drillClock is the settable wall clock both fleet drills hand their
// HA elections: trace time drives every coordinator's campaign
// timestamps, so leadership TTLs lapse in trace seconds — deterministic
// under -race and fast whatever the interval length.
type drillClock struct{ ns atomic.Int64 }

func (c *drillClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// Set moves the clock to d past the Unix epoch.
func (c *drillClock) Set(d time.Duration) { c.ns.Store(int64(d)) }

// shardNode is one shard coordinator process: a coordinator (in an HA
// pair), its ShardCoordinator wrapper, and the trunk server the global
// dials. alive=false models a crashed process — it is not stepped and
// its trunk server is closed.
type shardNode struct {
	coord *ctrlplane.Coordinator
	ha    *ctrlplane.HA
	sc    *ctrlplane.ShardCoordinator
	trunk *ctrlplane.BinaryServer
	alive bool
}

// drillShard is one shard of the tree: its fleet slice behind one
// binary listener, and its HA pair of coordinator nodes.
type drillShard struct {
	agents   []*ctrlplane.Agent
	backends []*demandBackend
	agentSrv *ctrlplane.BinaryServer
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
	// CutTrunkStep, when > 0, closes KillShard's trunk servers while
	// both of its coordinator nodes keep stepping: the shard is alive
	// but the global can reach it no more.
	CutTrunkStep int
	// KillShard is the shard the kill steps and the trunk cut target.
	KillShard int
	// SaturateStep, when > 0, raises SaturateShard's agents to
	// nameplate demand at that interval: the following global interval
	// must move headroom toward it.
	SaturateStep  int
	SaturateShard int
	// LeaseIv is the lease at both tiers, as pscoord's one -lease-iv
	// sets it: the draw lease shard coordinators grant and the budget
	// lease the global grants, which is also the reclaim window
	// (default ctrlplane.DefaultLeaseIv). Everything ages at IntervalS.
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
		return fmt.Errorf("scenario: two-tier drill needs shards, agents, and intervals")
	}
	if o.IntervalS <= 0 {
		o.IntervalS = 300
	}
	if o.ClusterCapW <= 0 {
		o.ClusterCapW = 52 * float64(o.Shards*o.AgentsPerShard)
	}
	if o.LeaseIv <= 0 {
		o.LeaseIv = ctrlplane.DefaultLeaseIv
	}
	if o.KillShard < 0 || o.KillShard >= o.Shards || o.SaturateShard < 0 || o.SaturateShard >= o.Shards {
		return fmt.Errorf("scenario: drill shard target out of range")
	}
	return nil
}

// events lists the drill's scripted faults as campaign events, in step
// order: event steps are 0-based, the drill's intervals 1-based.
func (o *TwoTierOptions) events() []Event {
	var evs []Event
	add := func(iv int, kind string, target int, format string, args ...any) {
		if iv > 0 {
			evs = append(evs, Event{Step: iv - 1, Kind: kind, Agent: target, Detail: fmt.Sprintf(format, args...)})
		}
	}
	add(o.KillLeaderStep, "shard-leader-down", o.KillShard, "shard %d leader dies; the warm standby promotes", o.KillShard)
	add(o.KillShardStep, "shard-loss", o.KillShard, "both coordinators of shard %d go dark; budget reserved until reclaim", o.KillShard)
	add(o.CutTrunkStep, "trunk-cut", o.KillShard, "shard %d's trunk servers close; both of its coordinators keep stepping", o.KillShard)
	add(o.SaturateStep, "saturate", o.SaturateShard, "shard %d demand jumps to nameplate; headroom must flow to it", o.SaturateShard)
	add(o.RestartGlobalStep, "global-restart", -1, "the global apportioner crash-restarts; it rehydrates its interval counter from the shards")
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Step < evs[j].Step })
	return evs
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
	Stats     ctrlplane.GlobalStats
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
	clock := &drillClock{}
	ivDur := time.Duration(opts.IntervalS * float64(time.Second))

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

	refs := make([]ctrlplane.ShardRef, opts.Shards)
	for s := 0; s < opts.Shards; s++ {
		sh := &drillShard{}
		shards[s] = sh
		eps := make(map[int]ctrlplane.CtrlEndpoint, opts.AgentsPerShard)
		for j := 0; j < opts.AgentsPerShard; j++ {
			id := s*opts.AgentsPerShard + j
			// Idle-but-alive demand just above the floor; saturation is
			// scripted per shard.
			b := newDemandBackend(47)
			a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{ID: id, Backend: b, Version: "2tier"})
			if err != nil {
				return nil, err
			}
			sh.agents = append(sh.agents, a)
			sh.backends = append(sh.backends, b)
			eps[id] = a
		}
		srv, err := ctrlplane.StartBinaryServer("127.0.0.1:0", ctrlplane.BinaryServerConfig{Endpoints: eps})
		if err != nil {
			return nil, err
		}
		sh.agentSrv = srv
		agentRefs := make([]ctrlplane.AgentRef, 0, opts.AgentsPerShard)
		for _, a := range sh.agents {
			agentRefs = append(agentRefs, ctrlplane.AgentRef{ID: a.ID(), URL: srv.URL()})
		}

		elect := ctrlplane.NewMemElection()
		ref := ctrlplane.ShardRef{ID: s}
		for r := 0; r < 2; r++ {
			coord, err := ctrlplane.New(ctrlplane.Config{
				Agents:    agentRefs,
				Strategy:  ctrlplane.StrategyUtility,
				FloorW:    45,
				LeaseIv:   opts.LeaseIv,
				IntervalS: opts.IntervalS,
				Seed:      opts.Seed + int64(s*2+r),
			})
			if err != nil {
				return nil, err
			}
			ha, err := ctrlplane.NewHA(coord, ctrlplane.HAConfig{
				ID:       fmt.Sprintf("shard%d-%s", s, string(rune('a'+r))),
				Election: elect,
				Clock:    clock.Now,
				Priority: r,
			})
			if err != nil {
				return nil, err
			}
			sc, err := ctrlplane.NewShardCoordinatorHA(ha, ctrlplane.ShardConfig{Shard: s, InitialBudgetW: evenBudget})
			if err != nil {
				return nil, err
			}
			trunk, err := ctrlplane.StartBinaryServer("127.0.0.1:0", sc.ShardBinaryConfig(ctrlplane.BinaryServerConfig{}))
			if err != nil {
				return nil, err
			}
			sh.nodes = append(sh.nodes, &shardNode{coord: coord, ha: ha, sc: sc, trunk: trunk, alive: true})
			ref.URLs = append(ref.URLs, trunk.URL())
		}
		refs[s] = ref
	}

	gcfg := ctrlplane.GlobalConfig{
		Shards:    refs,
		LeaseIv:   opts.LeaseIv,
		IntervalS: opts.IntervalS,
		Seed:      opts.Seed,
	}
	global, err := ctrlplane.NewGlobal(gcfg)
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
		clock.Set(time.Duration(iv) * ivDur)

		if iv == opts.RestartGlobalStep {
			// Crash-restart the apex: the replacement boots with a zero
			// interval counter and must recover it from the shards.
			global.Close()
			if global, err = ctrlplane.NewGlobal(gcfg); err != nil {
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
		if iv == opts.CutTrunkStep {
			for _, nd := range shards[opts.KillShard].nodes {
				nd.trunk.Close()
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
