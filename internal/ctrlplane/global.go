package ctrlplane

import (
	"context"
	"fmt"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/telemetry"
)

// ShardRef addresses one shard coordinator: its id and the trunk URLs
// of its coordinator set (leader plus standbys), tried in order until
// a leading one answers.
type ShardRef struct {
	ID   int
	URLs []string
}

// GlobalConfig parameterizes the global apportioner.
type GlobalConfig struct {
	// Shards is the static shard set.
	Shards []ShardRef
	// LeaseIv is the budget lease granted with every ShardBudget, in
	// global intervals (default DefaultLeaseIv): each grant carries the
	// global interval counter, which shards age by IntervalS regardless
	// of their local clock rate. Anything past one interval bounds how
	// long a partitioned shard keeps its stale budget.
	LeaseIv int
	// IntervalS is the nominal length of one global interval in trace
	// seconds (required).
	IntervalS float64
	// MissK is how many consecutive failed trunk scrapes expire a
	// shard's membership (default DefaultMissK).
	MissK int
	// ReclaimS is how long a silent shard's last budget stays reserved
	// after its membership expires (default the budget lease, LeaseIv ×
	// IntervalS). The default is safe whenever the shards run the
	// global's LeaseIv and MissK (see New): the shard's agent leases then
	// lapse within MissK intervals of its budget lease, before expiry
	// plus reclaim have passed.
	ReclaimS float64
	// MaxInFlight bounds trunk fan-out concurrency (default 8).
	MaxInFlight int
	// RPCTimeout, Retries, Seed: as Config.
	RPCTimeout time.Duration
	Retries    int
	Seed       int64
	// Telemetry, when non-nil, instruments the apportioner (shard
	// budget gauges, headroom moved, trunk RPC counters).
	Telemetry *telemetry.Hub
}

func (c GlobalConfig) missK() int {
	if c.MissK > 0 {
		return c.MissK
	}
	return DefaultMissK
}

func (c GlobalConfig) leaseIv() uint64 {
	if c.LeaseIv > 0 {
		return uint64(c.LeaseIv)
	}
	return DefaultLeaseIv
}

func (c GlobalConfig) reclaimS() float64 {
	if c.ReclaimS > 0 {
		return c.ReclaimS
	}
	return float64(c.leaseIv()) * c.IntervalS
}

// headroomGuardFrac is the slack a donor shard keeps above its own
// max(used, demand) when headroom is rebalanced.
const headroomGuardFrac = 0.05

// grantDeadbandW / grantDeadbandFrac bound the target jitter a grant
// repaint ignores: a couple of curve-grid steps absolute, or 1% of
// the shard's in-force budget, whichever is larger. Real demand
// shifts move by at least a curve step per cap-limited member and
// clear the band immediately.
const (
	grantDeadbandW    = 2 * cluster.ServerCapStepW
	grantDeadbandFrac = 0.01
)

// grantSlackFrac holds a sliver of the available watts out of the
// apportion target. Without it the DP spends everything, the granted
// budgets sum to the full pool, and — under decrease-before-increase —
// every increase stalls an interval waiting for a donor's acked
// decrease. The slack keeps the increase allowance funded so a demand
// shift is granted in the same interval it appears.
const grantSlackFrac = 0.02

func (c GlobalConfig) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return 8
}

// globalShard is the apportioner's view of one shard coordinator.
type globalShard struct {
	ref    ShardRef
	alive  bool
	misses int
	// urlIdx remembers which trunk URL last answered as leader, so a
	// stable shard costs one RPC per interval, not a URL walk.
	urlIdx int
	// grantedW is the last acknowledged budget — reserved against the
	// cluster cap until reclaimT while the shard is silent, because its
	// agents may legitimately draw against it until their leases lapse.
	grantedW float64
	granted  bool
	scraped  bool
	report   ShardReport
	reclaimT float64
	// rx is the destination this shard's trunk scrapes decode into — a
	// standby's answer included, which is why a leader's is copied to
	// report only once it has been accepted. The copy shares rx's curve,
	// which a decoder never writes in place (see wire.points).
	rx ShardReport
	// tel holds the shard's own gauges, resolved once.
	tel memberTel
}

// GlobalStats accumulates apportioner lifetime counters.
type GlobalStats struct {
	Steps int
	// Observes counts intervals that scraped and apportioned but held
	// the grant round (the counter not yet rehydrated).
	Observes       int
	ShardExpiries  int
	ShardRejoins   int
	Reclaims       int
	ScrapeFailures int
	GrantFailures  int
	// Rehydrations counts interval-counter recoveries from a majority
	// of shard scrapes (one per apportioner (re)start).
	Rehydrations int
}

// GlobalStepResult is one global interval's outcome.
type GlobalStepResult struct {
	T    float64
	CapW float64
	// Epoch is the global leadership epoch grants fanned out under.
	Epoch uint64
	// Leading is always true: the apex runs unelected.
	Leading bool
	// Deposed reports a ShardBudgetResponse carried a global epoch
	// above this apportioner's — another global leads.
	Deposed bool
	// Budgets/Granted/Alive index GlobalConfig.Shards.
	Budgets []float64
	Granted []bool
	Alive   []bool
	// ReservedW is the summed last-granted budgets of silent shards not
	// yet reclaimed — watts withheld from this interval's apportioning
	// because the silent shards' fleets may still be drawing them.
	ReservedW float64
	// RebalancedW is the unused headroom moved between shards this
	// interval (the ps_ctrl_shard_headroom_watts gauge).
	RebalancedW float64
	// PerfN is the DP's predicted summed performance of the grants.
	PerfN float64
	// ScrapeErrs/GrantErrs count shards whose trunk RPCs failed this
	// interval (after the URL walk and retries).
	ScrapeErrs int
	GrantErrs  int
	// Iv is the global protocol-clock interval this step's grants were
	// minted under (0 on rehydrating intervals).
	Iv uint64
	// Rehydrating reports that the apportioner skipped granting because
	// its interval counter is not yet recovered from a majority of shard
	// scrapes.
	Rehydrating bool
	// Err is the interval's first trunk scrape or grant failure in
	// shard order (nil when every RPC held).
	Err error
}

// Global is the apex of the two-tier budget tree: each interval it
// scrapes every shard coordinator's ShardReport over the trunk (the
// shard-tier membership heartbeat), splits the cluster cap across the
// live shards by reading it out of one cluster.Apportioner over their
// rolled-up curves on the 2 W grid (Apportioner.Shards: a cap move only
// backtracks, a changed rollup rebuilds from its position on), shifts
// unused headroom toward saturated shards, and fans the budgets out as
// epoch-fenced ShardBudget grants.
//
// Safety is the same invariant at a coarser grain: the sum of granted
// shard budgets plus the reserved budgets of silent shards never
// exceeds the cluster cap, and every grant carries the global (Epoch,
// Seq) pair, which shards fence exactly as agents fence assignments —
// global epoch fencing composed with shard epoch fencing
// (docs/CONTROL_PLANE.md §Hierarchy).
type Global struct {
	cfg    GlobalConfig
	client *rpcClient
	tel    *ctrlTel
	flog   *faults.Log

	shards []*globalShard
	stats  GlobalStats
	// dp is the shard split's DP table, kept across intervals.
	dp cluster.Apportioner
	// scratch is Step's working set, reset every interval instead of
	// reallocated; none of it is handed to a caller.
	scratch struct {
		aliveIdx             []int
		errs                 []error
		curves               []cluster.ShardCurve
		usedW, demandW, oldW []float64
	}

	// mintClock is the global epoch, grant sequence and interval
	// counter: a restarted apportioner refuses to mint until a majority
	// of shard scrapes have answered, so it adopts a counter at least
	// as high as any its predecessor's grants reached (Epoch, PeakEpoch
	// and Iv are its methods).
	mintClock
}

// NewGlobal builds a global apportioner over a static shard set.
func NewGlobal(cfg GlobalConfig) (*Global, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("ctrlplane: global apportioner needs at least one shard")
	}
	seen := make(map[int]bool, len(cfg.Shards))
	for _, ref := range cfg.Shards {
		if ref.ID < 0 || len(ref.URLs) == 0 {
			return nil, fmt.Errorf("ctrlplane: bad shard ref %+v", ref)
		}
		for _, u := range ref.URLs {
			if err := validateURL(u); err != nil {
				return nil, fmt.Errorf("ctrlplane: shard %d: %w", ref.ID, err)
			}
		}
		if seen[ref.ID] {
			return nil, fmt.Errorf("ctrlplane: duplicate shard id %d", ref.ID)
		}
		seen[ref.ID] = true
	}
	if cfg.LeaseIv < 0 {
		return nil, fmt.Errorf("ctrlplane: shard budget lease %d intervals", cfg.LeaseIv)
	}
	if !finite(cfg.IntervalS) || cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("ctrlplane: global apportioner needs IntervalS > 0, got %g s", cfg.IntervalS)
	}
	tel := newCtrlTel(cfg.Telemetry)
	g := &Global{
		cfg: cfg,
		tel: tel,
		client: newRPCClient(Config{
			RPCTimeout: cfg.RPCTimeout,
			Retries:    cfg.Retries,
			Seed:       cfg.Seed,
		}, tel),
		flog: faults.NewLog(0),
	}
	for _, ref := range cfg.Shards {
		refCopy := ref
		refCopy.URLs = append([]string(nil), ref.URLs...)
		for i, u := range refCopy.URLs {
			refCopy.URLs[i] = trimSlash(u)
		}
		// Shards start alive, like coordinator members: an unreachable
		// one expires after MissK trunk scrapes.
		g.shards = append(g.shards, &globalShard{ref: refCopy, alive: true, tel: tel.shard(len(g.shards))})
	}
	g.epoch.Store(1)
	return g, nil
}

// Stats returns the apportioner's lifetime counters.
func (g *Global) Stats() GlobalStats { return g.stats }

// FaultEvents returns the shard membership event log in order.
func (g *Global) FaultEvents() []faults.Event { return g.flog.Events() }

// Close releases pooled trunk connections.
func (g *Global) Close() { g.client.close() }

// scrapeShard walks one shard's trunk URLs from its last-good index
// until a leading coordinator answers, leaving that answer in s.rx and
// its index in s.urlIdx. It runs on the shard's own fan-out goroutine,
// the only one touching s until the fan-out returns.
func (g *Global) scrapeShard(ctx context.Context, s *globalShard, t float64) error {
	// The trunk scrape carries the global interval counter so shards
	// keep aging their budgets even across deadband-skipped re-grants.
	// It also names the rollup version report holds, which then stays home.
	req := ShardReportRequest{V: ProtocolV, Shard: s.ref.ID, T: t, HasT: true, Iv: g.iv.Load(), Held: s.report.CurveVer}
	var lastErr error
	n := len(s.ref.URLs)
	for k := 0; k < n; k++ {
		idx := (s.urlIdx + k) % n
		if err := call(ctx, g.client, rpcShardReport, g.client.retries, s.ref.ID, s.ref.URLs[idx], req, &s.rx); err != nil {
			lastErr = err
			continue
		}
		if s.rx.Shard != s.ref.ID {
			lastErr = fmt.Errorf("ctrlplane: trunk scrape of shard %d answered as %d", s.ref.ID, s.rx.Shard)
			continue
		}
		if !s.rx.Leading {
			lastErr = fmt.Errorf("ctrlplane: shard %d coordinator at %s is a standby", s.ref.ID, s.ref.URLs[idx])
			continue
		}
		if v := s.rx.CurveVer; v != 0 && s.rx.Curve == nil && v != req.Held {
			lastErr = fmt.Errorf("ctrlplane: shard %d kept back rollup %#x, held %#x", s.ref.ID, v, req.Held)
			continue
		}
		s.urlIdx = idx
		return nil
	}
	return lastErr
}

// Step drives one global interval at trace time t under cluster cap
// capW.
func (g *Global) Step(ctx context.Context, t, capW float64) (GlobalStepResult, error) {
	if !finite(t) || !finite(capW) || capW < 0 {
		return GlobalStepResult{}, fmt.Errorf("ctrlplane: global step t=%g cap=%g", t, capW)
	}
	epoch := g.epoch.Load()
	n := len(g.shards)
	res := GlobalStepResult{
		T: t, CapW: capW, Epoch: epoch, Leading: true,
		Budgets: make([]float64, n),
		Granted: make([]bool, n),
		Alive:   make([]bool, n),
	}

	// Phase 1 — trunk scrape, doubling as the shard-tier membership
	// heartbeat.
	sc := &g.scratch
	sc.errs = zeroed(sc.errs, n)
	errs := sc.errs
	for _, s := range g.shards {
		s.scraped = false // until a leader answers; a canceled ctx may never ask
	}
	fanOut(ctx, n, g.cfg.maxInFlight(), func(i int) {
		errs[i] = g.scrapeShard(ctx, g.shards[i], t)
		g.shards[i].scraped = errs[i] == nil
	})
	// Accounting, and the protocol-clock harvest: track the highest
	// interval and same-epoch sequence any shard has seen, and rehydrate
	// the counter from a majority of scrapes after a restart.
	scrapedOK := 0
	for _, s := range g.shards {
		if !s.scraped {
			s.misses++
			res.ScrapeErrs++
			g.stats.ScrapeFailures++
			continue
		}
		s.misses = 0
		held := s.report.Curve
		s.report = s.rx
		if s.rx.CurveVer != 0 && s.rx.Curve == nil {
			s.report.Curve = held // the version scrapeShard held
		}
		scrapedOK++
		s.tel.skewIv.Set(float64(g.harvest(epoch, s.report.GIv, s.report.GEpoch, s.report.GSeq)))
	}
	if g.settle(scrapedOK, len(g.shards)) {
		g.stats.Rehydrations++
		g.tel.rehydrations.Inc()
		g.flog.Append(faults.Event{T: t, Kind: "clock-rehydrate", Target: "global",
			Detail: fmt.Sprintf("interval counter recovered from %d/%d shards: iv=%d seq=%d", scrapedOK, len(g.shards), g.iv.Load(), g.seq)})
	}

	// Phase 2 — shard membership: expire after MissK consecutive
	// misses, reserving the expired shard's last budget until its
	// reclaim window passes (its agents hold leases against it);
	// readmit on the first successful scrape.
	for i, s := range g.shards {
		switch {
		case s.alive && s.misses >= g.cfg.missK():
			s.alive = false
			s.reclaimT = t + g.cfg.reclaimS()
			g.stats.ShardExpiries++
			g.flog.Append(faults.Event{T: t, Kind: "shard-expiry", Target: fmt.Sprintf("shard-%d", s.ref.ID),
				Detail: fmt.Sprintf("%d consecutive missed trunk scrapes; reserving %g W until t=%g", s.misses, s.grantedW, s.reclaimT)})
		case !s.alive && s.scraped:
			s.alive = true
			g.stats.ShardRejoins++
			g.flog.Append(faults.Event{T: t, Kind: "shard-rejoin", Target: fmt.Sprintf("shard-%d", s.ref.ID),
				Detail: "shard coordinator back; re-apportioning cluster budget"})
		}
		if !s.alive && s.granted && t >= s.reclaimT {
			g.stats.Reclaims++
			g.flog.Append(faults.Event{T: t, Kind: "shard-reclaim", Target: fmt.Sprintf("shard-%d", s.ref.ID),
				Detail: fmt.Sprintf("budget lease and agent leases lapsed; %g W returned to the pool", s.grantedW)})
			s.grantedW, s.granted = 0, false
		}
		res.Alive[i] = s.alive
	}

	// Phase 3 — reserve silent shards' budgets, then apportion the
	// remainder across the live shards and shift unused headroom toward
	// saturated ones. sum(budgets) ≤ available and available + reserved
	// ≤ capW give the tree's cap invariant.
	for _, s := range g.shards {
		if !s.alive && s.granted {
			res.ReservedW += s.grantedW
		}
	}
	available := capW - res.ReservedW
	if available < 0 {
		available = 0
	}
	aliveIdx := sc.aliveIdx[:0]
	for i, s := range g.shards {
		if s.alive {
			aliveIdx = append(aliveIdx, i)
		}
	}
	sc.aliveIdx = aliveIdx
	if len(aliveIdx) > 0 {
		curves, usedW, demandW := sc.curves[:0], sc.usedW[:0], sc.demandW[:0]
		for _, i := range aliveIdx {
			rep := &g.shards[i].report
			curves = append(curves, cluster.ShardCurve{FloorW: rep.FloorW, Points: rep.Curve})
			usedW, demandW = append(usedW, rep.UsedW), append(demandW, rep.DemandW)
		}
		sc.curves, sc.usedW, sc.demandW = curves, usedW, demandW
		budgets, perf := g.dp.Shards(available*(1-grantSlackFrac), curves)
		budgets, res.RebalancedW = cluster.RebalanceHeadroom(budgets, usedW, demandW, headroomGuardFrac)
		res.PerfN = perf
		// Decrease-before-increase: a granted decrease takes effect at
		// the shard's next step, but a shard that misses a grant (a
		// coordinator mid-failover, a silent shard inside its MissK
		// grace) keeps enforcing its OLD budget — so an interval's caps
		// must stay safe under ANY mix of old and new budgets. Grant
		// decreases in full; scale increases so that the sum of every
		// shard's max(old, new) fits the available watts. The freed
		// watts of a decrease become grantable one interval later, when
		// the donor's report confirms the lower budget in force.
		sc.oldW = slots(sc.oldW, len(aliveIdx))
		oldW := sc.oldW
		var sumOld, totalInc float64
		for j, i := range aliveIdx {
			s := g.shards[i]
			oldW[j] = s.grantedW
			if s.report.V != 0 {
				// The shard's own report of the budget it enforces —
				// which also covers its bootstrap budget, granted by
				// nobody.
				oldW[j] = s.report.BudgetW
			}
			// Deadband: hold the grant steady when the target only
			// jittered (DP tie-breaks and demand over-asks wander by a
			// curve step as member splits shift). Sub-noise decreases
			// would otherwise consume the increase allowance below
			// every interval, starving real demand shifts — which clear
			// the deadband easily, at a curve step per member.
			db := grantDeadbandW
			if r := grantDeadbandFrac * oldW[j]; r > db {
				db = r
			}
			if d := budgets[j] - oldW[j]; d > -db && d < db {
				budgets[j] = oldW[j]
			}
			sumOld += oldW[j]
			if inc := budgets[j] - oldW[j]; inc > 0 {
				totalInc += inc
			}
		}
		if allowedInc := available - sumOld; totalInc > allowedInc {
			scale := 0.0
			if allowedInc > 0 {
				scale = allowedInc / totalInc
			}
			for j := range budgets {
				if inc := budgets[j] - oldW[j]; inc > 0 {
					budgets[j] = oldW[j] + inc*scale
				}
			}
		}
		for j, i := range aliveIdx {
			res.Budgets[i] = budgets[j]
		}
	}

	// Phase 4 — fan the grants out.
	if !g.rehydrated {
		// An apportioner that has not recovered its interval counter
		// from a shard majority must not mint (see mintClock.mint).
		// Shards keep enforcing (and aging) their last budgets, so
		// skipping the grant round is safe.
		res.Rehydrating = true
		res.Deposed = g.deposed(epoch)
		res.Err = firstErr(errs)
		g.stats.Observes++
		g.tel.noteGlobalStep(res, g.shards)
		return res, nil
	}
	seq, mintIv := g.mint()
	leaseIv, ivS := g.cfg.leaseIv(), g.cfg.IntervalS
	res.Iv = mintIv
	fanOut(ctx, len(aliveIdx), g.cfg.maxInFlight(), func(k int) {
		i := aliveIdx[k]
		s := g.shards[i]
		req := ShardBudgetRequest{V: ProtocolV, Epoch: epoch, Seq: seq, Shard: s.ref.ID,
			T: t, CapW: res.Budgets[i],
			Iv: mintIv, LeaseIv: leaseIv, IvS: ivS}
		// Grant to the whole coordinator set, not just the leader —
		// the trunk mirror of agents announcing to every coordinator. A
		// standby that applies each budget to its own fenced ledger is
		// warm on promotion: it enforces the budget the global last
		// granted, not its bootstrap share, which is what keeps the sum
		// of shard budgets capped through a shard-leader failover.
		var grantErr error
		for k2 := 0; k2 < len(s.ref.URLs); k2++ {
			idx := (s.urlIdx + k2) % len(s.ref.URLs)
			var resp ShardBudgetResponse
			if err := call(ctx, g.client, rpcShardBudget, g.client.retries, s.ref.ID, s.ref.URLs[idx], req, &resp); err != nil {
				if grantErr == nil {
					grantErr = err
				}
				continue
			}
			g.noteEpoch(resp.Epoch)
			// Applied, or refused-as-duplicate with our own grant in
			// force, both mean the budget holds; a refusal at a higher
			// epoch means another apportioner owns the shard.
			if resp.Applied || (resp.Epoch == epoch && resp.CapW == res.Budgets[i]) {
				res.Granted[i] = true
			} else if grantErr == nil {
				grantErr = fmt.Errorf("ctrlplane: shard %d refused epoch-%d budget (shard at global epoch %d)",
					s.ref.ID, epoch, resp.Epoch)
			}
		}
		if !res.Granted[i] {
			errs[i] = grantErr
		}
	})
	for _, i := range aliveIdx {
		s := g.shards[i]
		if res.Granted[i] {
			s.grantedW, s.granted = res.Budgets[i], true
		} else {
			res.GrantErrs++
			g.stats.GrantFailures++
		}
	}
	res.Deposed = g.deposed(epoch)
	res.Err = firstErr(errs)
	g.stats.Steps++
	g.tel.noteGlobalStep(res, g.shards)
	return res, nil
}

// GrantedShardW returns the last acknowledged budget of the shard at
// config index i (0 when none).
func (g *Global) GrantedShardW(i int) float64 {
	if i < 0 || i >= len(g.shards) {
		return 0
	}
	return g.shards[i].grantedW
}
