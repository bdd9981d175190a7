package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/telemetry"
)

// tree-1k-8: the two-tier drill's topology rebuilt from public parts —
// 8 shards of 125 demand-driven agents, each shard an HA pair of shard
// coordinators (in-memory election, injected clock) with its own agent
// listener and two trunk listeners, one global apportioner. One
// interval steps every node in series and then the global: the same
// serial pass psbench's binary-2tier cell times.
const (
	treeShards         = 8
	treeAgentsPerShard = 125
	treeSmokeShards    = 2
	treeSmokeAgents    = 10
	treeWarmupIv       = 4
)

// treeClock is the shared election clock, advanced in lockstep with
// trace time so leadership terms are deterministic.
type treeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *treeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *treeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// treeNode is one shard coordinator process of an HA pair.
type treeNode struct {
	coord *ctrlplane.Coordinator
	ha    *ctrlplane.HA
	sc    *ctrlplane.ShardCoordinator
	trunk *ctrlplane.BinaryServer
}

type treeShard struct {
	slice *fleetSlice
	nodes []*treeNode
}

// trunkCounters time the wrapped ShardReport/ShardBudget handlers.
type trunkCounters struct {
	reports, budgets   atomic.Int64
	reportNs, budgetNs atomic.Int64
}

type treeWorkload struct {
	tr     *spanRec
	lc     *layerCounters
	tc     *trunkCounters
	hub    *telemetry.Hub
	clock  *treeClock
	shards []*treeShard
	global *ctrlplane.Global
	rng    *rand.Rand
	window int
	agents []*ctrlplane.Agent
	// backends is parallel to agents.
	backends []*demandBackend
	uncapped float64

	t        float64
	capW     float64
	gres     ctrlplane.GlobalStepResult
	nodeErr  error
	curGStep atomic.Int64 // span id of the global step in flight
	curIv    atomic.Int64
	inputs   digest
	outcomes digest
	settle   settleTracker
	perfSum  float64
	perfN    int
	done     int
}

func (w *treeWorkload) capAt(i int) float64 {
	return float64(len(w.agents)) * (50 + float64(i%5))
}

// pass is one whole-tree control interval: every node's shard step in
// series, then the global step.
func (w *treeWorkload) pass(ctx context.Context, i int, capW float64) error {
	w.t += fleetIntervalS
	w.clock.advance(time.Duration(fleetIntervalS * float64(time.Second)))
	w.capW = capW
	w.nodeErr = nil
	root := w.tr.interval()
	for s, sh := range w.shards {
		for _, nd := range sh.nodes {
			t0 := time.Now()
			res, err := nd.sc.Step(ctx, w.t)
			if err != nil {
				return fmt.Errorf("shard %d step: %w", s, err)
			}
			if w.tr != nil {
				name := "shard.observe"
				if res.Leading {
					name = "shard.step"
				}
				w.tr.span(name, layerCtrl, i, root, t0, time.Now())
			}
			if res.Leading {
				if err := checkStep(res); err != nil && w.nodeErr == nil {
					w.nodeErr = fmt.Errorf("shard %d leader: %w", s, err)
				}
			} else if res.ScrapeErrs != 0 && w.nodeErr == nil {
				w.nodeErr = fmt.Errorf("shard %d standby: %d scrape errors", s, res.ScrapeErrs)
			}
		}
	}
	id := w.tr.newID()
	w.curGStep.Store(id)
	w.curIv.Store(int64(i))
	t0 := time.Now()
	var err error
	w.gres, err = w.global.Step(ctx, w.t, capW)
	if err != nil {
		return fmt.Errorf("global step: %w", err)
	}
	w.tr.emit(id, "global.step", layerCtrl, tidDriver, i, root, t0, time.Now())
	return nil
}

func (w *treeWorkload) prepare(i int) error {
	hashed := i < w.window
	d, err := drift(w.rng, w.backends, w.agents, w.inputs, hashed)
	if err != nil {
		return err
	}
	w.uncapped += d
	if hashed {
		w.inputs.f64(w.capAt(i))
	}
	return nil
}

func (w *treeWorkload) step(ctx context.Context, i int) error {
	return w.pass(ctx, i, w.capAt(i))
}

func (w *treeWorkload) checkGlobal() error {
	if w.nodeErr != nil {
		return w.nodeErr
	}
	g := w.gres
	if g.ScrapeErrs != 0 || g.GrantErrs != 0 {
		return fmt.Errorf("trunk RPC errors after retries: %d scrape, %d grant", g.ScrapeErrs, g.GrantErrs)
	}
	if g.Rehydrating {
		return fmt.Errorf("global apportioner still rehydrating its interval counter")
	}
	var sum float64
	for s := range g.Budgets {
		if !g.Alive[s] || !g.Granted[s] {
			return fmt.Errorf("shard %d alive=%v granted=%v", s, g.Alive[s], g.Granted[s])
		}
		sum += g.Budgets[s]
	}
	if sum+g.ReservedW > g.CapW+capEps {
		return fmt.Errorf("granted %g W + reserved %g W exceeds the %g W cluster cap", sum, g.ReservedW, g.CapW)
	}
	return nil
}

func (w *treeWorkload) check(i int) error {
	w.done++
	if err := w.checkGlobal(); err != nil {
		return err
	}
	capSum, perf := fleetSums(w.agents)
	over := w.settle.note(capSum, w.capW)
	if i < w.window {
		w.perfSum += perf / w.uncapped
		w.perfN++
		for _, b := range w.gres.Budgets {
			w.outcomes.f64(b)
		}
		w.outcomes.f64(capSum)
	}
	// A shard applies a lowered budget at its next step, and its agents
	// hold fleetLeaseIv-interval leases: that is the documented grace.
	if over > fleetLeaseIv {
		return fmt.Errorf("enforced caps sum to %.3f W above the %.3f W cap for %d intervals, past the %d-interval lease grace",
			capSum, w.capW, over, fleetLeaseIv)
	}
	return nil
}

func (w *treeWorkload) finish() (outcome, error) {
	o := outcome{
		capSettleIv:   w.settle.max,
		window:        min(w.window, w.done),
		inputDigest:   w.inputs.sum(),
		outcomeDigest: w.outcomes.sum(),
		layer:         map[string]float64{},
	}
	if w.perfN > 0 {
		o.perfFrac = w.perfSum / float64(w.perfN)
	}
	n := float64(max(w.done, 1))
	var frames, ops, steps int
	var dials uint64
	failovers := 0
	for _, sh := range w.shards {
		for _, nd := range sh.nodes {
			st := nd.coord.Stats()
			frames += st.BatchFrames
			ops += st.BatchedOps
			steps = max(steps, st.Steps+st.Observes)
			dials += nd.coord.WireStats().BinaryDials
			failovers += nd.ha.Failovers()
		}
	}
	o.layer["ctrlplane.batch_frames"] = float64(frames) / float64(max(steps, 1))
	o.layer["ctrlplane.batched_ops"] = float64(ops) / float64(max(steps, 1))
	o.layer["ctrlplane.conn_dials"] = float64(dials)
	w.lc.fold(n, o.layer)
	if w.tc != nil {
		o.layer["ctrlplane.shard_report_us"] = float64(w.tc.reportNs.Load()) / 1e3 / float64(max(w.tc.reports.Load(), 1))
		o.layer["ctrlplane.shard_budget_us"] = float64(w.tc.budgetNs.Load()) / 1e3 / float64(max(w.tc.budgets.Load(), 1))
	}
	if w.hub != nil {
		o.layer["ctrlplane.wire_bytes"] = wireBytes(w.hub) / float64(max(steps, 1))
	}
	if failovers != 0 {
		return o, fmt.Errorf("tree-1k-8: %d shard failovers in a fault-free run", failovers)
	}
	return o, nil
}

func (w *treeWorkload) close() {
	if w.global != nil {
		w.global.Close()
	}
	for _, sh := range w.shards {
		for _, nd := range sh.nodes {
			if nd.trunk != nil {
				nd.trunk.Close()
			}
			nd.coord.Close()
		}
		sh.slice.close()
	}
}

// trunkConfig exposes a shard coordinator's trunk surface, wrapped in
// spans and timers on the traced pass.
func (w *treeWorkload) trunkConfig(sc *ctrlplane.ShardCoordinator) ctrlplane.BinaryServerConfig {
	if w.tr == nil {
		return sc.ShardBinaryConfig(ctrlplane.BinaryServerConfig{})
	}
	return ctrlplane.BinaryServerConfig{
		ShardReport: func(req ctrlplane.ShardReportRequest) (ctrlplane.ShardReport, error) {
			t0 := time.Now()
			rep, err := sc.Report(req)
			t1 := time.Now()
			w.tc.reportNs.Add(t1.Sub(t0).Nanoseconds())
			w.tc.reports.Add(1)
			w.tr.emit(w.tr.newID(), "trunk.shard_report", layerCtrl, tidServer, int(w.curIv.Load()), w.curGStep.Load(), t0, t1)
			return rep, err
		},
		ShardBudget: func(req ctrlplane.ShardBudgetRequest) (ctrlplane.ShardBudgetResponse, error) {
			t0 := time.Now()
			resp, err := sc.ApplyBudget(req)
			t1 := time.Now()
			w.tc.budgetNs.Add(t1.Sub(t0).Nanoseconds())
			w.tc.budgets.Add(1)
			w.tr.emit(w.tr.newID(), "trunk.shard_budget", layerCtrl, tidServer, int(w.curIv.Load()), w.curGStep.Load(), t0, t1)
			return resp, err
		},
	}
}

func buildTree(seed int64, sz size, tr *spanRec) (workload, error) {
	shards, per := treeShards, treeAgentsPerShard
	if sz.smoke {
		shards, per = treeSmokeShards, treeSmokeAgents
	}
	w := &treeWorkload{
		tr: tr, window: sz.window,
		clock:  &treeClock{t: time.Unix(0, 0)},
		rng:    rand.New(rand.NewSource(seed)),
		inputs: newDigest(), outcomes: newDigest(),
	}
	if tr != nil {
		w.lc, w.tc = &layerCounters{}, &trunkCounters{}
	}
	if sz.hub {
		w.hub = telemetry.New(1024)
	}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	gen := rand.New(rand.NewSource(seed ^ 0x7ee))
	n := shards * per
	evenBudget := 52 * float64(per)
	termTTL := time.Duration(1.5 * fleetIntervalS * float64(time.Second))
	refs := make([]ctrlplane.ShardRef, shards)
	for s := 0; s < shards; s++ {
		cfgs := make([]ctrlplane.AgentConfig, per)
		for j := range cfgs {
			b := &demandBackend{demandW: drawDemand(gen), curve: true}
			w.inputs.f64(b.demandW)
			w.backends = append(w.backends, b)
			w.uncapped += b.uncappedPerf()
			cfgs[j] = ctrlplane.AgentConfig{ID: s*per + j, Backend: b, Version: "psperf"}
		}
		slice, err := startSlice(cfgs, w.lc)
		if err != nil {
			return nil, err
		}
		sh := &treeShard{slice: slice}
		w.shards = append(w.shards, sh)
		w.agents = append(w.agents, slice.agents...)
		elect := ctrlplane.NewMemElection()
		ref := ctrlplane.ShardRef{ID: s}
		for r := 0; r < 2; r++ {
			coord, err := ctrlplane.New(ctrlplane.Config{
				Agents:      slice.refs,
				Strategy:    ctrlplane.StrategyUtility,
				FloorW:      demandFloorW,
				LeaseIv:     fleetLeaseIv,
				IntervalS:   fleetIntervalS,
				MaxInFlight: runtime.NumCPU(),
				Seed:        seed + int64(s*2+r),
				Telemetry:   w.hub,
			})
			if err != nil {
				return nil, err
			}
			nd := &treeNode{coord: coord}
			sh.nodes = append(sh.nodes, nd)
			nd.ha, err = ctrlplane.NewHA(coord, ctrlplane.HAConfig{
				ID:       fmt.Sprintf("shard%d-%c", s, 'a'+r),
				Election: elect,
				TermTTL:  termTTL,
				Clock:    w.clock.now,
				Priority: r,
			})
			if err != nil {
				return nil, err
			}
			nd.sc, err = ctrlplane.NewShardCoordinatorHA(nd.ha, ctrlplane.ShardConfig{Shard: s, InitialBudgetW: evenBudget})
			if err != nil {
				return nil, err
			}
			nd.trunk, err = ctrlplane.StartBinaryServer("127.0.0.1:0", w.trunkConfig(nd.sc))
			if err != nil {
				return nil, err
			}
			ref.URLs = append(ref.URLs, nd.trunk.URL())
		}
		refs[s] = ref
	}
	var err error
	w.global, err = ctrlplane.NewGlobal(ctrlplane.GlobalConfig{
		Shards:      refs,
		LeaseIv:     fleetLeaseIv + 1,
		IntervalS:   fleetIntervalS,
		ReclaimS:    (fleetLeaseIv + 1) * fleetIntervalS,
		MaxInFlight: runtime.NumCPU(),
		Seed:        seed,
		Telemetry:   w.hub,
	})
	if err != nil {
		return nil, err
	}
	// Warm-up: shard rehydration and first assigns, the global's
	// rehydration, its first budget fan-out, and one steady interval.
	ctx := context.Background()
	for k := 0; k < treeWarmupIv; k++ {
		if err := w.pass(ctx, -1, float64(n)*52); err != nil {
			return nil, fmt.Errorf("tree-1k-8 warm-up: %w", err)
		}
	}
	if err := w.checkGlobal(); err != nil {
		return nil, fmt.Errorf("tree-1k-8 warm-up did not reach steady state: %w", err)
	}
	w.lc.reset()
	if w.tc != nil {
		for _, v := range []*atomic.Int64{&w.tc.reports, &w.tc.budgets, &w.tc.reportNs, &w.tc.budgetNs} {
			v.Store(0)
		}
	}
	ok = true
	return w, nil
}
