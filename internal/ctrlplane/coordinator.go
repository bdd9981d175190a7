package ctrlplane

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/telemetry"
)

// Strategy selects how the coordinator apportions the cluster cap.
type Strategy int

const (
	// StrategyEqual splits the cap evenly across live agents —
	// Equal(Ours) with the network in the loop.
	StrategyEqual Strategy = iota
	// StrategyUtility apportions by marginal utility with the
	// cluster.ApportionCurves DP over scraped cap-utility curves —
	// Utility(Ours) with the network in the loop.
	StrategyUtility
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyEqual:
		return "equal"
	case StrategyUtility:
		return "utility"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a CLI name to a strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "equal":
		return StrategyEqual, nil
	case "utility":
		return StrategyUtility, nil
	default:
		return 0, fmt.Errorf("ctrlplane: unknown strategy %q (equal, utility)", name)
	}
}

// AgentRef addresses one fleet member.
type AgentRef struct {
	// ID is the agent's fleet index (must match the agent's own).
	ID int
	// URL is the agent's frame listener, e.g. tcp://10.0.0.7:9090.
	// Agents sharing one listener share one URL (and ride batch frames).
	URL string
}

// Config parameterizes the coordinator.
type Config struct {
	// Agents is the initial fleet. With Dynamic set it may be empty and
	// agents join at runtime through Register (the register frame a
	// NewCoordinatorBinaryConfig listener serves).
	Agents []AgentRef
	// Dynamic admits agents registered after construction; without it
	// an empty Agents list is an error and registrations are refused.
	Dynamic bool
	// Strategy picks the apportioning scheme (default equal).
	Strategy Strategy
	// LeaseIv is the draw lease granted with every assignment, in
	// control intervals (default DefaultLeaseIv, at most MissK: see New):
	// every grant carries the minting interval and is valid for LeaseIv
	// intervals, identically for trace-replay agents and wall-clock
	// daemons. One interval is the hard cap guarantee; longer leases
	// bound a breach by their length. A coordinator refuses to grant
	// until it has rehydrated its interval counter from a majority of
	// scrape responses, so a crash–restart cannot re-issue intervals.
	LeaseIv int
	// IntervalS is the nominal control-interval length in seconds
	// (required), stamped on every grant so agents can age the protocol
	// clock locally when the coordinator stalls.
	IntervalS float64
	// MissK is how many consecutive failed scrapes expire an agent's
	// membership lease (default DefaultMissK; the parity tests use 1 so
	// expiry lands in the same control interval as the outage).
	MissK int
	// MaxInFlight bounds fan-out concurrency (default 8).
	MaxInFlight int
	// RPCTimeout bounds each RPC attempt (default 2s).
	RPCTimeout time.Duration
	// Retries is the per-RPC retry budget beyond the first attempt
	// (default 2), under jittered exponential backoff from 10 ms to
	// 160 ms.
	Retries int
	// BreakerFails, when positive, arms a per-agent circuit breaker:
	// after that many consecutive failed scrapes the coordinator stops
	// dialing the agent for BreakerOpenIntervals control intervals
	// (skips still count as missed heartbeats), then spends one
	// retry-free probe. Zero (the default) disables the breaker — the
	// parity replays depend on the exact default RPC behavior.
	BreakerFails int
	// BreakerOpenIntervals is the open window in control intervals
	// (default 4).
	BreakerOpenIntervals int
	// Seed drives backoff jitter.
	Seed int64
	// FloorW overrides the idle floor fed to the utility DP; zero
	// learns it from agent reports.
	FloorW float64
	// CurveConfFloor is the minimum confidence at which a learned
	// member curve (one reported with CurveConf/CurveCells meta) enters
	// the utility DP; below it the member takes the curveless even-share
	// fallback. Pre-characterized curves, reported without meta, are
	// always trusted. Zero means DefaultCurveConfFloor; negative admits
	// every learned curve.
	CurveConfFloor float64
	// Transport, when non-nil, injects network faults around every
	// frame exchange — the drop/delay/duplicate/blackhole shim of the
	// soak and scenario suites.
	Transport *faults.NetInjector
	// Telemetry, when non-nil, instruments the coordinator (fleet
	// gauges, RPC counters and latency, membership trace instants).
	Telemetry *telemetry.Hub
}

// DefaultLeaseIv and DefaultMissK are the lease and the missed scrapes
// that expire a member, in intervals, at every tier: Config and
// GlobalConfig both read them.
const (
	DefaultLeaseIv = 2
	DefaultMissK   = 3
)

// DefaultCurveConfFloor is the coverage confidence a learned curve
// must reach before the utility DP trusts it: three quarters of the
// cap grid observed or filled-and-verified. Below it the even-share
// fallback is safer than a curve that is mostly extrapolation.
const DefaultCurveConfFloor = 0.75

func (c Config) curveConfFloor() float64 {
	if c.CurveConfFloor != 0 {
		return c.CurveConfFloor
	}
	return DefaultCurveConfFloor
}

func (c Config) leaseIv() uint64 {
	if c.LeaseIv > 0 {
		return uint64(c.LeaseIv)
	}
	return DefaultLeaseIv
}

func (c Config) missK() int {
	if c.MissK > 0 {
		return c.MissK
	}
	return DefaultMissK
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return 8
}

func (c Config) rpcTimeout() time.Duration {
	if c.RPCTimeout > 0 {
		return c.RPCTimeout
	}
	return 2 * time.Second
}

func (c Config) rpcRetries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 2
}

// member is the coordinator's view of one agent.
type member struct {
	ref    AgentRef
	alive  bool
	misses int
	// grantedW is the last acknowledged budget (what the agent
	// enforces until its lease lapses).
	grantedW float64
	granted  bool
	// Scraped state. curveVer is curve's version, scraped back so an
	// unchanged curve stays home. curveConf/curveCells mirror the report's
	// curve meta: both zero for a pre-characterized (fully trusted) curve,
	// non-zero for a learned one the apportioner weighs against the
	// confidence floor.
	scraped    bool
	floorW     float64
	curve      []cluster.CapPoint
	curveVer   uint64
	curveConf  float64
	curveCells int
	gridW      float64
	perfN      float64
	soc        float64
	fenced     bool
	version    string
	// Circuit-breaker ledger (see breaker.go): consecutive failed
	// scrapes, and open-window intervals left to skip.
	breakerFails    int
	breakerOpenLeft int
	// tel holds the member's own gauges, resolved once at admission.
	tel memberTel
}

// Stats accumulates coordinator lifetime counters.
type Stats struct {
	Steps          int
	Observes       int
	Reapportions   int
	LeaseExpiries  int
	Rejoins        int
	ScrapeFailures int
	AssignFailures int
	Registrations  int
	// BreakerTrips counts per-agent circuit breakers opened (including
	// re-opens after a failed half-open probe); BreakerSkips counts
	// scrapes and grants never sent because a breaker was open.
	BreakerTrips int
	BreakerSkips int
	// Rehydrations counts interval-counter rehydrations from a scrape
	// majority — once per (re)start.
	Rehydrations int
	// BatchFrames counts batch frames exchanged with agents; BatchedOps
	// counts the per-agent operations they carried (a fleet of 1k behind
	// one listener moves ~1k ops in 2 frames per interval, a fleet of 1k
	// listeners 1k ops in 2k frames).
	BatchFrames int
	BatchedOps  int
}

// StepResult is one control interval's outcome.
type StepResult struct {
	T    float64
	CapW float64
	// Epoch is the leadership epoch the interval ran under (always 1
	// for a plain single coordinator).
	Epoch uint64
	// Leading is false for an Observe interval: budgets were computed
	// but nothing was granted.
	Leading bool
	// Iv is the protocol-clock interval minted for this interval's
	// grants (0 on observe and rehydrating intervals).
	Iv uint64
	// Rehydrating reports a leader that skipped granting because it has
	// not yet recovered its interval counter from a majority of agent
	// scrapes (a restart in progress).
	Rehydrating bool
	// Deposed reports that some response carried an epoch above this
	// coordinator's — another leader has taken over and this one's
	// grants are being refused.
	Deposed bool
	// Budgets is the per-agent budget the coordinator decided this
	// interval (zero for expired agents) — the sequence the parity
	// gate compares against the in-process oracle.
	Budgets []float64
	// Granted marks which budgets were acknowledged by their agent.
	Granted []bool
	// Alive is the membership mask after this interval's scrapes.
	Alive []bool
	// Reapportioned reports an alive-set transition this interval.
	Reapportioned bool
	// FleetGridW and FleetPerfN sum the live agents' scraped state.
	FleetGridW float64
	FleetPerfN float64
	// ScrapeErrs/AssignErrs count RPC failures this interval (after
	// retries).
	ScrapeErrs int
	AssignErrs int
	// BreakerSkips counts scrapes and grants not sent this interval
	// because the target agent's circuit breaker was open.
	BreakerSkips int
	// Err is the interval's first scrape or grant failure in member
	// order (nil when every RPC held) — the "why" behind ScrapeErrs and
	// AssignErrs, e.g. which agent refused a grant and at which epoch.
	Err error
}

// firstErr returns the first non-nil error of a per-member ledger.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Coordinator drives a fleet of agents: scrape, decide, fan out.
// Step is single-threaded (it is the control loop); the fan-out inside
// each step is concurrent.
type Coordinator struct {
	cfg    Config
	client *rpcClient
	tel    *ctrlTel

	members   []*member
	prevAlive []bool
	stats     Stats
	flog      *faults.Log
	// dp is the incremental apportioning cache: between intervals most
	// member curves are unchanged (pre-characterized ones never change,
	// learned ones only while probing), so the utility DP rebuilds about
	// one layer per changed curve.
	dp cluster.Apportioner
	// scratch is Step's working set, reset every interval instead of
	// reallocated (see stepScratch for what may and may not be retained).
	scratch stepScratch

	// mintClock is the leadership epoch, grant sequence and interval
	// counter, rehydrated from a majority of agent reports before the
	// first mint (Epoch, PeakEpoch and Iv are its methods).
	mintClock

	// regMu guards pending, the agent announcements queued by Register
	// (listener goroutines) until the next Step admits them.
	regMu   sync.Mutex
	pending []AgentRef
}

// New builds a coordinator over a static fleet. It refuses a LeaseIv
// longer than MissK: a silent member's watts go to the survivors after
// MissK missed scrapes, so its lease must have lapsed by then. Shard
// coordinators are Coordinators, so the rule binds members at both
// tiers; with one LeaseIv and MissK at every tier it covers the tree
// too. A shard cut off its trunk starves when its budget lease lapses,
// and its agents lapse within LeaseIv ≤ MissK more intervals: before
// the global's expiry plus reclaim window (the budget lease) pass.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Agents) == 0 && !cfg.Dynamic {
		return nil, fmt.Errorf("ctrlplane: coordinator needs at least one agent (or Config.Dynamic for a registration-built fleet)")
	}
	seen := make(map[int]bool, len(cfg.Agents))
	for _, ref := range cfg.Agents {
		if ref.ID < 0 {
			return nil, fmt.Errorf("ctrlplane: bad agent ref %+v", ref)
		}
		if err := validateURL(ref.URL); err != nil {
			return nil, fmt.Errorf("ctrlplane: agent %d: %w", ref.ID, err)
		}
		if seen[ref.ID] {
			return nil, fmt.Errorf("ctrlplane: duplicate agent id %d", ref.ID)
		}
		seen[ref.ID] = true
	}
	if cfg.LeaseIv < 0 {
		return nil, fmt.Errorf("ctrlplane: lease of %d intervals", cfg.LeaseIv)
	}
	if l, k := cfg.leaseIv(), cfg.missK(); l > uint64(k) {
		return nil, fmt.Errorf("ctrlplane: a lease of %d intervals outlives MissK %d: a partitioned member would keep its lease after its watts were re-apportioned", l, k)
	}
	if !finite(cfg.IntervalS) || cfg.IntervalS <= 0 {
		return nil, fmt.Errorf("ctrlplane: coordinator needs IntervalS > 0, got %g", cfg.IntervalS)
	}
	tel := newCtrlTel(cfg.Telemetry)
	c := &Coordinator{
		cfg:    cfg,
		tel:    tel,
		client: newRPCClient(cfg, tel),
		flog:   faults.NewLog(0),
	}
	for _, ref := range cfg.Agents {
		c.admit(ref)
	}
	c.epoch.Store(1)
	return c, nil
}

// admit appends a member. Members start alive — the in-process oracle
// starts every server alive too, and a registering agent has just
// announced itself; an unreachable one expires after MissK intervals.
// The member's URL is stored without trailing slashes, the one form
// Register compares and the fan-out plans group on.
func (c *Coordinator) admit(ref AgentRef) {
	ref.URL = trimSlash(ref.URL)
	c.members = append(c.members, &member{ref: ref, alive: true, tel: c.tel.member(len(c.members))})
}

// SetEpoch moves the coordinator to a new leadership epoch. Bumping it
// invalidates the granted ledger, so the next step assigns every
// member afresh instead of renewing leases granted under an older
// epoch (which agents would refuse anyway). Call between steps only —
// the HA wrapper does, right after winning an election.
func (c *Coordinator) SetEpoch(e uint64) {
	if !c.setEpoch(e) {
		return
	}
	for _, m := range c.members {
		m.grantedW, m.granted = 0, false
	}
}

// Register queues an agent announcement; the next control interval
// admits it (or updates the URL of a member that re-announced after a
// restart). Safe to call from handler goroutines concurrently with
// Step. The response's leader fields are zero here — the coordinator
// handler fills them from the HA layer when one is attached.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	resp := RegisterResponse{V: ProtocolV, Server: req.Server, Epoch: c.Epoch()}
	if !c.cfg.Dynamic {
		return resp
	}
	ref := AgentRef{ID: req.Server, URL: trimSlash(req.URL)}
	c.regMu.Lock()
	replaced := false
	for i, p := range c.pending {
		if p.ID == ref.ID {
			c.pending[i], replaced = ref, true
			break
		}
	}
	if !replaced {
		c.pending = append(c.pending, ref)
	}
	c.regMu.Unlock()
	c.tel.registrations.Inc()
	resp.Accepted = true
	return resp
}

// admitRegistrations merges queued announcements into the member set.
// Runs at the top of each control interval, on the control loop's
// goroutine, so membership never mutates mid-step.
func (c *Coordinator) admitRegistrations(t float64) {
	c.regMu.Lock()
	pending := c.pending
	c.pending = nil
	c.regMu.Unlock()
	for _, ref := range pending {
		found := false
		for _, m := range c.members {
			if m.ref.ID == ref.ID {
				found = true
				if m.ref.URL != ref.URL {
					c.flog.Append(faults.Event{T: t, Kind: "agent-reregister", Target: fmt.Sprintf("agent-%d", ref.ID),
						Detail: fmt.Sprintf("url %s -> %s", m.ref.URL, ref.URL)})
					m.ref.URL = ref.URL
					// The fan-out plans group members by URL.
					c.scratch.scrape.valid, c.scratch.grant.valid = false, false
				}
				break
			}
		}
		if found {
			continue
		}
		c.admit(ref)
		c.stats.Registrations++
		c.flog.Append(faults.Event{T: t, Kind: "agent-register", Target: fmt.Sprintf("agent-%d", ref.ID),
			Detail: fmt.Sprintf("announced at %s; fleet is now %d agents", ref.URL, len(c.members))})
	}
}

// Stats returns the coordinator's lifetime counters.
func (c *Coordinator) Stats() Stats { return c.stats }

// FaultEvents returns the membership event log (lease expiries and
// rejoins) in order.
func (c *Coordinator) FaultEvents() []faults.Event { return c.flog.Events() }

// Step drives one control interval at trace time t under cluster cap
// capW: scrape every member (the liveness heartbeat), settle
// membership, apportion the cap across the live fleet, and fan the
// budgets out.
func (c *Coordinator) Step(ctx context.Context, t, capW float64) (StepResult, error) {
	return c.step(ctx, t, capW, true)
}

// Observe runs one control interval without granting anything: scrape
// the fleet (warm state and the membership heartbeat), settle
// membership, and compute what this coordinator would apportion. A
// standby runs Observe every interval so that on winning an election
// it already holds current curves, floors, budgets, and membership —
// takeover needs no discovery phase, which is what keeps failover
// inside one control interval.
func (c *Coordinator) Observe(ctx context.Context, t, capW float64) (StepResult, error) {
	return c.step(ctx, t, capW, false)
}

// stepScratch is the working set of one Step, owned by the coordinator
// and reset — not reallocated — every interval: the per-member ledgers
// the fan-outs write and the accounting loops read, the two fan-out
// plans with their request slices and decoded reply slabs, and the
// apportioner's inputs. None of it is handed to a caller: what a caller
// keeps (StepResult's slices, errors, fault events) is allocated fresh.
// The one thing a member retains out of it is a report's curve, and a
// decoder lands every curve in a fresh slice (see wire.points).
type stepScratch struct {
	reports               []*Report
	errs                  []error
	states                []breakerState
	batchFrames, batchOps atomic.Int64
	scrape, grant         batchPlan
	live, curved          []int
	curves                [][]cluster.CapPoint
}

// zeroed resizes a scratch ledger to n zero elements.
func zeroed[T any](s []T, n int) []T {
	s = slots(s, n)
	clear(s)
	return s
}

func (c *Coordinator) step(ctx context.Context, t, capW float64, lead bool) (StepResult, error) {
	if !finite(t) || !finite(capW) || capW < 0 {
		return StepResult{}, fmt.Errorf("ctrlplane: step t=%g cap=%g", t, capW)
	}
	c.admitRegistrations(t)
	epoch := c.epoch.Load()
	n := len(c.members)
	res := StepResult{
		T: t, CapW: capW,
		Epoch: epoch, Leading: lead,
		Budgets: make([]float64, n),
		Granted: make([]bool, n),
		Alive:   make([]bool, n),
	}
	sc := &c.scratch
	sc.reports = zeroed(sc.reports, n)
	sc.errs = zeroed(sc.errs, n)
	sc.batchFrames.Store(0)
	sc.batchOps.Store(0)
	reports, errs := sc.reports, sc.errs

	// Phase 1 — telemetry scrape, doubling as the membership
	// heartbeat: one batch frame per listener, sent in parallel with
	// bounded concurrency, carrying the coordinator clock so agents can
	// notice lapsed leases. A member behind an open circuit breaker is
	// skipped outright (the skip still counts as a missed heartbeat); a
	// half-open one gets a single retry-free probe. Breaker states are
	// snapshotted serially first (they only mutate in the accounting
	// loops between fan-outs, so the snapshot equals what each goroutine
	// would read) because grouping depends on them.
	scrapes := c.plan(&sc.scrape, nil)
	fanOut(ctx, len(scrapes.groups), c.cfg.maxInFlight(), func(k int) {
		c.scrapeGroup(ctx, t, &scrapes.groups[k])
	})
	for i, m := range c.members {
		if rep := reports[i]; rep != nil {
			if c.breakerNoteSuccess(m) {
				c.flog.Append(faults.Event{T: t, Kind: "breaker-close", Target: fmt.Sprintf("agent-%d", m.ref.ID),
					Detail: "half-open probe answered; resuming normal scrape/grant flow"})
			}
			m.misses = 0
			m.scraped = true
			m.gridW, m.perfN, m.soc, m.fenced = rep.GridW, rep.PerfN, rep.SoC, rep.Fenced
			m.floorW = rep.IdleFloorW
			m.version = rep.Version
			// Points replace the held curve, a version keeps it (and
			// brings the meta), and version 0 — no curve — keeps it too.
			if len(rep.UtilityCurve) > 0 {
				m.curve, m.curveVer = rep.UtilityCurve, rep.CurveVer
			}
			if rep.CurveVer != 0 {
				m.curveConf, m.curveCells = rep.CurveConf, rep.CurveCells
			}
			m.tel.soc.Set(rep.SoC)
		} else {
			if sc.states[i] == breakerOpen {
				m.breakerOpenLeft--
				res.BreakerSkips++
				c.stats.BreakerSkips++
			} else if errs[i] != nil && c.breakerNoteFailure(m) {
				c.stats.BreakerTrips++
				c.tel.breakerTrips.Inc()
				c.flog.Append(faults.Event{T: t, Kind: "breaker-open", Target: fmt.Sprintf("agent-%d", m.ref.ID),
					Detail: fmt.Sprintf("%d consecutive failed scrapes; skipping RPCs for %d intervals", m.breakerFails, c.cfg.breakerOpenIntervals())})
			}
			m.misses++
			m.scraped = false
			res.ScrapeErrs++
			c.stats.ScrapeFailures++
		}
	}

	// Protocol-clock harvest. Every scraped report carries the agent's
	// highest observed interval; fold them into the skew gauge and —
	// until a majority has answered — the rehydration ledger. Observe
	// intervals harvest too, so a warm standby is already rehydrated
	// when it wins an election.
	scrapedOK := 0
	for i, m := range c.members {
		rep := reports[i]
		if rep == nil {
			continue
		}
		scrapedOK++
		// Per-member lag series; the fleet max the old scalar gauge
		// carried is max() over these.
		m.tel.skewIv.Set(float64(c.harvest(epoch, rep.Iv, rep.Epoch, rep.Seq)))
	}
	if c.settle(scrapedOK, len(c.members)) {
		c.stats.Rehydrations++
		c.tel.rehydrations.Inc()
		c.flog.Append(faults.Event{T: t, Kind: "clock-rehydrate", Target: "coordinator",
			Detail: fmt.Sprintf("interval counter recovered from %d/%d agents: iv=%d seq=%d", scrapedOK, len(c.members), c.iv.Load(), c.seq)})
	}

	// Phase 2 — membership: expire after MissK consecutive misses,
	// readmit on the first successful scrape.
	for i, m := range c.members {
		switch {
		case m.alive && m.misses >= c.cfg.missK():
			m.alive = false
			m.grantedW, m.granted = 0, false
			c.stats.LeaseExpiries++
			c.tel.leaseExpiries.Inc()
			c.tel.noteMembership(t, i, true)
			c.flog.Append(faults.Event{T: t, Kind: "lease-expiry", Target: fmt.Sprintf("agent-%d", i),
				Detail: fmt.Sprintf("%d consecutive missed scrapes; re-apportioning cluster budget across survivors", m.misses)})
		case !m.alive && m.scraped:
			m.alive = true
			c.stats.Rejoins++
			c.tel.rejoins.Inc()
			c.tel.noteMembership(t, i, false)
			c.flog.Append(faults.Event{T: t, Kind: "agent-rejoin", Target: fmt.Sprintf("agent-%d", i),
				Detail: "agent back; re-apportioning cluster budget"})
		}
		res.Alive[i] = m.alive
	}
	if c.prevAlive != nil {
		// A length change is registration growing the fleet mid-run.
		res.Reapportioned = !slices.Equal(res.Alive, c.prevAlive)
	}
	c.prevAlive = append(c.prevAlive[:0], res.Alive...)
	if res.Reapportioned {
		c.stats.Reapportions++
		c.tel.reapportions.Inc()
	}

	// Phase 3 — apportion the cluster cap across the live fleet.
	if err := c.apportion(capW, res.Alive, res.Budgets); err != nil {
		return StepResult{}, err
	}

	// Phase 4 — fan the budgets out (leader only; a standby's interval
	// ends at the decision). An unchanged budget rides a coalesced lease
	// renewal instead of a full assignment; either way the grant
	// re-arms the agent's draw lease. Every request carries the
	// leadership epoch, and every response reports the agent's highest
	// applied epoch — one above ours anywhere means we are deposed and
	// our grants are being refused.
	if lead && c.rehydrated {
		// Mint this interval's protocol-clock reading and the lease triple
		// every grant carries.
		seq, mintIv := c.mint()
		res.Iv = mintIv
		round := grantRound{t: t, epoch: epoch, seq: seq, iv: mintIv, leaseIv: c.cfg.leaseIv(), ivS: c.cfg.IntervalS,
			budgets: res.Budgets, granted: res.Granted}
		// The plan snapshots breaker states afresh: the scrape accounting
		// above moved them (a success closes a breaker, a failure may open
		// one).
		grants := c.plan(&sc.grant, res.Alive)
		fanOut(ctx, len(grants.groups), c.cfg.maxInFlight(), func(k int) {
			c.grantGroup(ctx, round, &grants.groups[k])
		})
		for i, m := range c.members {
			if !m.alive {
				continue
			}
			if sc.states[i] == breakerOpen {
				// The scrape already paid this member's miss; the grant
				// was not burnt against the same black hole.
				res.BreakerSkips++
				c.stats.BreakerSkips++
			}
			if res.Granted[i] {
				m.grantedW, m.granted = res.Budgets[i], true
			} else {
				res.AssignErrs++
				c.stats.AssignFailures++
				c.tel.assignFails.Inc()
			}
		}
		c.stats.Steps++
	} else {
		// A leader that has not yet heard a majority holds its grants
		// like a standby (see mintClock.mint). Agents ride their leases
		// (or safe mode) until the counter is recovered.
		res.Rehydrating = lead
		c.stats.Observes++
	}
	for _, m := range c.members {
		// Membership has settled: a scraped member is an alive one.
		if m.scraped {
			res.FleetGridW += m.gridW
			res.FleetPerfN += m.perfN
		}
	}
	res.Deposed = c.deposed(epoch)
	res.Err = firstErr(errs)
	c.stats.BatchFrames += int(sc.batchFrames.Load())
	c.stats.BatchedOps += int(sc.batchOps.Load())
	c.tel.batchedOps.Add(uint64(sc.batchOps.Load()))
	c.tel.noteStep(res, c.members)
	return res, nil
}

// scrapeGroup scrapes one group in a single batch frame, decoded into
// the group's own slab; the step's report ledger points at its slots.
func (c *Coordinator) scrapeGroup(ctx context.Context, t float64, g *batchGroup) {
	sc := &c.scratch
	req := BatchScrapeRequest{V: ProtocolV, T: t, HasT: true, Servers: g.ids}
	if slices.Max(g.held) != 0 { // an all-zero list is sent empty
		req.Held = g.held
	}
	if err := call(ctx, c.client, rpcBatchScrape, g.retries, g.ids[0], g.url, req, &g.scrape); err != nil {
		for _, i := range g.idx {
			sc.errs[i] = err
		}
		return
	}
	sc.batchFrames.Add(1)
	sc.batchOps.Add(int64(len(g.idx)))
	for j, i := range g.idx {
		if j >= len(g.scrape.Results) || g.scrape.Results[j].Server != g.ids[j] {
			sc.errs[i] = fmt.Errorf("ctrlplane: batch scrape response missing agent %d", g.ids[j])
			continue
		}
		r := &g.scrape.Results[j]
		if r.Err != "" {
			sc.errs[i] = fmt.Errorf("ctrlplane: agent %d: %s", r.Server, r.Err)
			continue
		}
		if r.Report.Server != r.Server {
			sc.errs[i] = fmt.Errorf("ctrlplane: scrape of agent %d answered as %d", r.Server, r.Report.Server)
			continue
		}
		if v := r.Report.CurveVer; v != 0 && r.Report.UtilityCurve == nil && v != g.held[j] {
			sc.errs[i] = fmt.Errorf("ctrlplane: agent %d kept back curve %#x, held %#x", r.Server, v, g.held[j])
			continue
		} else if len(r.Report.UtilityCurve) > 0 {
			g.held[j] = v // as step's harvest sets the member's curveVer
		}
		c.noteEpoch(r.Report.Epoch)
		sc.reports[i] = &r.Report
	}
}

// grantRound is what every grant of one interval shares: the minted
// (epoch, seq) pair and protocol-clock triple, and the StepResult
// ledgers the fan-out reads budgets from and marks grants in.
type grantRound struct {
	t           float64
	epoch, seq  uint64
	iv, leaseIv uint64
	ivS         float64
	budgets     []float64
	granted     []bool
}

// renewable reports that member i's acknowledged budget already equals
// this interval's, so the grant can ride a lease renewal.
func (r grantRound) renewable(m *member, i int) bool {
	return m.granted && m.grantedW == r.budgets[i] && m.scraped && !m.fenced
}

// grantGroup grants one group in a single frame: coalesced renewals for
// members whose acknowledged budget already matches, fresh assigns for
// the rest. The listener runs renew-else-assign per entry
// (BinaryServer.grantOne), so a renewal that did not hold is answered
// with the fresh assign's acknowledgement.
func (c *Coordinator) grantGroup(ctx context.Context, r grantRound, g *batchGroup) {
	sc := &c.scratch
	g.entries = g.entries[:0]
	for j, i := range g.idx {
		g.entries = append(g.entries, GrantEntry{Server: g.ids[j], CapW: r.budgets[i], Renew: r.renewable(c.members[i], i)})
	}
	req := BatchGrantRequest{V: ProtocolV, Epoch: r.epoch, Seq: r.seq, T: r.t,
		Iv: r.iv, LeaseIv: r.leaseIv, IvS: r.ivS, Entries: g.entries}
	if err := call(ctx, c.client, rpcBatchGrant, g.retries, g.ids[0], g.url, req, &g.grant); err != nil {
		for _, i := range g.idx {
			sc.errs[i] = err
		}
		return
	}
	sc.batchFrames.Add(1)
	sc.batchOps.Add(int64(len(g.idx)))
	for j, i := range g.idx {
		if j >= len(g.grant.Results) || g.grant.Results[j].Server != g.ids[j] {
			sc.errs[i] = fmt.Errorf("ctrlplane: batch grant response missing agent %d", g.ids[j])
			continue
		}
		res := &g.grant.Results[j]
		if res.Err != "" {
			sc.errs[i] = fmt.Errorf("ctrlplane: agent %d: %s", res.Server, res.Err)
			continue
		}
		c.noteEpoch(res.Resp.Epoch)
		// Renewed, applied, or refused-as-duplicate with our own grant
		// already in force all mean this interval's budget holds. A
		// refusal carrying a higher epoch means another leader owns the
		// agent.
		if res.Renewed || res.Resp.Applied || (res.Resp.Epoch == r.epoch && res.Resp.CapW == r.budgets[i]) {
			r.granted[i] = true
			continue
		}
		sc.errs[i] = fmt.Errorf("ctrlplane: agent %d refused epoch-%d grant (agent at epoch %d)",
			res.Server, r.epoch, res.Resp.Epoch)
	}
}

// batchPlan is one fan-out's partition of the fleet into batch frames.
// It is kept across intervals and rebuilt only when what it was computed
// from changed: the membership, a member's URL, a breaker state or the
// alive mask.
type batchPlan struct {
	valid  bool
	states []breakerState
	alive  []bool
	groups []batchGroup
}

// batchGroup is one batch frame's worth of members: fleet indices that
// share a listener URL. The group owns what its frame needs every
// interval — the request's id and entry slices and the slab its reply
// decodes into — so a steady-state interval reuses last interval's.
// Replies answer slot-for-slot: slot j settles the member at position j
// only if it names that member's id, so a permuted, foreign or missing
// slot leaves its position unanswered rather than settling another
// member.
type batchGroup struct {
	url string
	idx []int // fleet indices
	ids []int // their agent ids, parallel to idx: a batch scrape's Servers
	// retries is the frame's retry budget: the client's, or none for a
	// half-open breaker's probe.
	retries int
	// held mirrors the members' curveVer, parallel to ids: seeded when
	// the plan is built and kept by scrapeGroup as curves arrive.
	held    []uint64
	entries []GrantEntry
	scrape  BatchScrapeResponse
	grant   BatchGrantResponse
}

// plan snapshots every member's breaker state into the scratch ledger
// the fan-out reads, brings p up to date with it and the alive mask
// (nil: every member), and returns p. Members alive under the mask are
// grouped per URL, chunked at maxBatchEntries; a lone agent's group is a
// one-entry frame. An open breaker's member rides no frame, and a
// half-open one probes alone, in a one-entry frame with no retries.
func (c *Coordinator) plan(p *batchPlan, alive []bool) *batchPlan {
	c.scratch.states = slots(c.scratch.states, len(c.members))
	states := c.scratch.states
	for i, m := range c.members {
		states[i] = c.breakerState(m)
	}
	if p.valid && slices.Equal(p.states, states) && slices.Equal(p.alive, alive) {
		return p
	}
	p.valid = true
	p.states = append(p.states[:0], states...)
	p.alive = append(p.alive[:0], alive...)
	clear(p.groups) // drop the old groups' slabs
	p.groups = p.groups[:0]
	group := func(url string, idx []int, retries int) {
		g := batchGroup{url: url, idx: idx, ids: make([]int, len(idx)), held: make([]uint64, len(idx)), retries: retries}
		for j, i := range idx {
			g.ids[j], g.held[j] = c.members[i].ref.ID, c.members[i].curveVer
		}
		p.groups = append(p.groups, g)
	}
	byURL := make(map[string][]int)
	var order []string
	for i, m := range c.members {
		switch {
		case states[i] == breakerOpen || (alive != nil && !alive[i]):
		case states[i] == breakerHalfOpen:
			group(m.ref.URL, []int{i}, 0)
		default:
			if _, ok := byURL[m.ref.URL]; !ok {
				order = append(order, m.ref.URL)
			}
			byURL[m.ref.URL] = append(byURL[m.ref.URL], i)
		}
	}
	for _, url := range order {
		for idx := byURL[url]; len(idx) > 0; {
			n := min(len(idx), maxBatchEntries)
			group(url, idx[:n], c.client.retries)
			idx = idx[n:]
		}
	}
	return p
}

// WireStats is the client-side connection ledger for the binary
// transport — the bench asserts dials stay bounded while reuses grow
// with the interval count (i.e. the pool works).
type WireStats struct {
	BinaryDials  uint64
	BinaryReuses uint64
}

// WireStats returns the coordinator's connection counters.
func (c *Coordinator) WireStats() WireStats {
	return WireStats{
		BinaryDials:  c.client.bin.dials.Load(),
		BinaryReuses: c.client.bin.reuses.Load(),
	}
}

// Close releases pooled connections. The coordinator must not be
// stepped afterwards.
func (c *Coordinator) Close() { c.client.close() }

// apportion fills budgets with the strategy's per-agent grants.
func (c *Coordinator) apportion(capW float64, alive []bool, budgets []float64) error {
	sc := &c.scratch
	idxs := sc.live[:0]
	for i, a := range alive {
		if a {
			idxs = append(idxs, i)
		}
	}
	sc.live = idxs
	if len(idxs) == 0 {
		return nil
	}
	switch c.cfg.Strategy {
	case StrategyEqual:
		per := capW / float64(len(idxs))
		for _, i := range idxs {
			budgets[i] = per
		}
	case StrategyUtility:
		// Members whose report yields no usable cap-utility curve — a
		// curveless live daemon, a learner below the confidence floor,
		// or a member on MissK grace that has not reported yet — get the
		// documented fallback of an even share; the DP apportions the
		// remaining budget across the curve-bearing members. The
		// effective-curve decision is made once here, per interval, so a
		// curve crossing the floor cannot flap a member's treatment
		// within one apportion.
		per := capW / float64(len(idxs))
		remainW := capW
		curved := sc.curved[:0]
		for _, i := range idxs {
			if c.effectiveCurve(c.members[i]) == nil {
				budgets[i] = per
				remainW -= per
			} else {
				curved = append(curved, i)
			}
		}
		sc.curved = curved
		if len(curved) == 0 {
			return nil
		}
		floor := c.cfg.FloorW
		if floor == 0 {
			// ApportionCurves prices every curve from one common idle
			// floor; silently picking one member's floor would compute
			// every other member's budget against the wrong floor, so
			// a heterogeneous fleet must say what it wants explicitly.
			floor = c.members[curved[0]].floorW
			for _, i := range curved[1:] {
				if f := c.members[i].floorW; f != floor {
					return fmt.Errorf("ctrlplane: heterogeneous idle floors (agent %d reports %g W, agent %d reports %g W); set Config.FloorW to apportion a mixed fleet",
						c.members[curved[0]].ref.ID, floor, c.members[i].ref.ID, f)
				}
			}
		}
		curves := sc.curves[:0]
		for _, i := range curved {
			curves = append(curves, c.effectiveCurve(c.members[i]))
		}
		sc.curves = curves
		// The incremental apportioner is bit-identical to ApportionCurves
		// and rebuilds about as many DP layers as curves changed since
		// the last interval.
		b, _, _ := c.dp.Apportion(remainW, floor, curves)
		c.tel.noteDP(c.dp.LastRecomputed(), c.dp.LastFellBack())
		for j, i := range curved {
			budgets[i] = b[j]
		}
	default:
		return fmt.Errorf("ctrlplane: unknown strategy %v", c.cfg.Strategy)
	}
	return nil
}

// effectiveCurve returns the cap-utility curve the apportioner may use
// for a member, or nil for the even-share fallback: pre-characterized
// curves (reported without meta) are trusted outright; learned curves
// (meta present) count only once their confidence clears the configured
// floor.
func (c *Coordinator) effectiveCurve(m *member) []cluster.CapPoint {
	if m.curve == nil {
		return nil
	}
	if (m.curveConf != 0 || m.curveCells != 0) && m.curveConf < c.cfg.curveConfFloor() {
		return nil
	}
	return m.curve
}
