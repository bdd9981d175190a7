package ctrlplane

import (
	"fmt"
	"sync"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
)

// Backend is the server an agent enforces budgets on: the simulated
// mediated server in tests and the replay harness, a live psd daemon in
// deployment.
type Backend interface {
	// Apply enforces capW and returns the normalized performance and
	// grid draw the server settles at under that cap.
	Apply(capW float64) (perfN, gridW float64, err error)
	// SoC is the battery state of charge in [0, 1] (0 without an ESD).
	SoC() float64
	// IdleFloorW is the draw the server cannot shed without shutting
	// down; NameplateW its unconstrained maximum.
	IdleFloorW() float64
	NameplateW() float64
	// UtilityCurve samples the server's cap → (perf, grid) curve on
	// the cluster.ServerCapStepW grid, or returns nil when the server
	// cannot characterize itself.
	UtilityCurve() ([]cluster.CapPoint, error)
}

// AgentConfig parameterizes one agent.
type AgentConfig struct {
	// ID is the agent's fleet index; assigns addressed to another
	// server are refused.
	ID int
	// Backend is the enforced server (required).
	Backend Backend
	// FenceCapW is the fail-safe cap the agent self-imposes when its
	// draw lease lapses. The default of zero models the deepest
	// fail-safe the simulated platform has — suspend everything and
	// sleep — matching internal/cluster's dropout semantics (a lost
	// server draws nothing), which is what makes lease expiry and
	// in-process dropout interchangeable.
	FenceCapW float64
	// SafeMode, when enabled, replaces the fence cliff with a graceful
	// leaderless degradation: hold the last granted cap, then walk it
	// down toward a floor. Zero value keeps the cliff semantics.
	SafeMode SafeModeConfig
	// Learn, when non-nil, replaces the backend's pre-characterized
	// utility curve with an online estimator: the agent self-caps to
	// probe unsampled cap levels (never above its grant), learns the
	// cap→utility curve from what it enforces, and reports the learned
	// curve with CurveConf/CurveCells meta so the coordinator can weigh
	// its confidence. FloorW and NameplateW default to the backend's.
	Learn *cf.OnlineConfig
	// Version is reported to the coordinator (build audit).
	Version string
	// Clock, when non-nil, is the agent's own clock in seconds — a live
	// daemon's wall clock. The agent then ages leases and safe-mode decay
	// against it and ignores the coordinator's trace time T on grants,
	// renewals and scrapes. Nil (trace replay) adopts T as it arrives.
	Clock func() float64
}

// SafeModeConfig parameterizes leaderless degradation. The invariant
// that makes holding safe: the held cap is the last cap a leader
// granted, so the fleet-wide sum of held caps never exceeds the last
// cluster cap that leader apportioned. Decay from there only shrinks
// the sum — a leaderless fleet drifts toward its floors instead of
// cliffing to them the instant a lease lapses.
type SafeModeConfig struct {
	// HoldS holds the last granted cap for this many seconds of
	// protocol-clock time (whole intervals × the nominal interval
	// length) past lease expiry before decay begins.
	HoldS float64
	// DecayWPerS is the linear ramp-down rate after the hold window.
	// Safe mode is enabled iff DecayWPerS > 0.
	DecayWPerS float64
	// FloorW is the decay target — the deepest the degradation goes
	// without a coordinator. Defaults to the agent's FenceCapW.
	FloorW float64
}

// Enabled reports whether safe-mode degradation replaces the fence
// cliff.
func (c SafeModeConfig) Enabled() bool { return c.DecayWPerS > 0 }

// Validate rejects non-finite or negative safe-mode parameters.
func (c SafeModeConfig) Validate() error {
	if !finite(c.HoldS) || c.HoldS < 0 {
		return fmt.Errorf("ctrlplane: safe-mode hold %g s", c.HoldS)
	}
	if !finite(c.DecayWPerS) || c.DecayWPerS < 0 {
		return fmt.Errorf("ctrlplane: safe-mode decay %g W/s", c.DecayWPerS)
	}
	if !finite(c.FloorW) || c.FloorW < 0 {
		return fmt.Errorf("ctrlplane: safe-mode floor %g W", c.FloorW)
	}
	return nil
}

// CapAt computes the safe-mode cap lapsedS seconds past the lease
// boundary for a lease that lapsed holding heldW: the held cap through
// the hold window, then a linear decay clamped at the floor. A held cap
// already at or below the floor just stays put.
func (c SafeModeConfig) CapAt(lapsedS, heldW float64) float64 {
	if heldW <= c.FloorW {
		return heldW
	}
	over := lapsedS - c.HoldS
	if over <= 0 {
		return heldW
	}
	capW := heldW - c.DecayWPerS*over
	if capW < c.FloorW {
		capW = c.FloorW
	}
	return capW
}

// Agent is the per-server control-plane endpoint: it holds the enforced
// cap, the draw lease, and the last applied sequence number, and fences
// itself when the lease lapses. All methods are safe for concurrent
// use.
type Agent struct {
	cfg AgentConfig

	mu        sync.Mutex
	capW      float64
	perfN     float64
	gridW     float64
	lastEpoch uint64
	lastSeq   uint64
	// clk is the draw lease and the agent's reading of the coordinator's
	// protocol clock.
	clk leaseClock
	// localT is the agent's own clock high-water mark (trace time for
	// replay agents, cfg.Clock seconds for daemons).
	localT float64
	fenced bool
	// safeMode is a flavor of fenced: the lease lapsed, but instead of
	// the fence cap the agent enforces heldW decaying per SafeMode.
	// Only a fresh Assign clears it.
	safeMode    bool
	safeEntries int
	heldW       float64
	curveBuilt  bool
	// curve is the curve last reported and its version: the static
	// curve, hashed once, or the learner's, hashed again per rebuild.
	curve curveMemo
	// Online-learning state (cfg.Learn): est learns the cap→utility
	// curve from enforced caps, grantW remembers the full grant so a
	// probing agent can restore it, and lastProbeIv rate-limits probe
	// moves to one per protocol interval — the cap never flaps within
	// an interval.
	est         *cf.OnlineEstimator
	grantW      float64
	lastProbeIv uint64
	// assigns/fences/staleDrops/epochDrops count protocol activity for
	// the local operator (the coordinator has its own fleet-wide
	// counters).
	assigns    int
	fences     int
	staleDrops int
	epochDrops int
}

// NewAgent builds an agent booted in the fenced state: until the first
// grant arrives it enforces the fail-safe cap, so a freshly started
// fleet is safe by default.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("ctrlplane: agent %d needs a backend", cfg.ID)
	}
	if cfg.ID < 0 {
		return nil, fmt.Errorf("ctrlplane: agent id %d", cfg.ID)
	}
	if !finite(cfg.FenceCapW) || cfg.FenceCapW < 0 {
		return nil, fmt.Errorf("ctrlplane: agent %d fence cap %g W", cfg.ID, cfg.FenceCapW)
	}
	if err := cfg.SafeMode.Validate(); err != nil {
		return nil, fmt.Errorf("agent %d: %w", cfg.ID, err)
	}
	if cfg.SafeMode.Enabled() && cfg.SafeMode.FloorW == 0 {
		cfg.SafeMode.FloorW = cfg.FenceCapW
	}
	a := &Agent{cfg: cfg, fenced: true, capW: cfg.FenceCapW}
	if cfg.Learn != nil {
		lc := *cfg.Learn
		if lc.FloorW == 0 {
			lc.FloorW = cfg.Backend.IdleFloorW()
		}
		if lc.NameplateW == 0 {
			lc.NameplateW = cfg.Backend.NameplateW()
		}
		est, err := cf.NewOnlineEstimator(lc)
		if err != nil {
			return nil, fmt.Errorf("ctrlplane: agent %d learner: %w", cfg.ID, err)
		}
		a.est = est
	}
	perf, grid, err := cfg.Backend.Apply(cfg.FenceCapW)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: agent %d boot fence: %w", cfg.ID, err)
	}
	a.perfN, a.gridW = perf, grid
	return a, nil
}

// ID returns the agent's fleet index.
func (a *Agent) ID() int { return a.cfg.ID }

// Assign applies a budget grant. Grants are ordered by (Epoch, Seq):
// anything not strictly newer than the last applied pair is
// acknowledged without effect. Within one epoch that makes assignment
// idempotent under network-level duplication and reordering; across
// epochs it fences a deposed leader — once any grant from epoch E has
// been applied, every in-flight or retried grant from an older epoch
// is refused, no matter how it was delayed or duplicated.
func (a *Agent) Assign(req AssignRequest) (AssignResponse, error) {
	if req.Server != a.cfg.ID {
		return AssignResponse{}, fmt.Errorf("ctrlplane: assign for server %d reached agent %d", req.Server, a.cfg.ID)
	}
	if err := validateClockFields(req.Iv, req.LeaseIv, req.IvS); err != nil {
		return AssignResponse{}, fmt.Errorf("ctrlplane: assign %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if req.Epoch < a.lastEpoch {
		a.epochDrops++
		return a.stateLocked(false), nil
	}
	if req.Epoch == a.lastEpoch && req.Seq <= a.lastSeq {
		a.staleDrops++
		return a.stateLocked(false), nil
	}
	capW := req.CapW
	if a.est != nil {
		// A learning agent may self-cap below its grant to probe an
		// unsampled cell; a probe never exceeds the grant, so the
		// cluster cap holds while the curve is partial.
		a.grantW = req.CapW
		capW = a.est.ProbeCap(req.CapW)
		a.lastProbeIv = req.Iv
	}
	perf, grid, err := a.cfg.Backend.Apply(capW)
	if err != nil {
		return AssignResponse{}, err
	}
	a.capW, a.perfN, a.gridW = capW, perf, grid
	a.lastEpoch = req.Epoch
	a.lastSeq = req.Seq
	a.clk.observe(req.Iv, req.IvS, a.nowLocked(req.T))
	a.clk.grant(req.Iv, req.LeaseIv, req.IvS)
	a.fenced = false
	a.safeMode = false
	a.assigns++
	if a.est != nil {
		a.est.Observe(a.capW, a.perfN)
	}
	return a.stateLocked(true), nil
}

// Renew extends the draw lease without changing the budget. A fenced
// agent stays fenced and its lease stays dead — only a fresh Assign
// restores a budget. A delayed or duplicated renewal minted in an
// interval before the in-force lease's anchor is ignored: moving the
// boundary backward would spuriously fence a healthy agent on its next
// Tick. Only the epoch that granted the in-force budget may renew it —
// a deposed leader must not keep a budget it no longer owns alive, and
// a new leader has nothing to renew before its first assign.
func (a *Agent) Renew(req LeaseRequest) (LeaseResponse, error) {
	if req.Server != a.cfg.ID {
		return LeaseResponse{}, fmt.Errorf("ctrlplane: lease for server %d reached agent %d", req.Server, a.cfg.ID)
	}
	if err := validateClockFields(req.Iv, req.LeaseIv, req.IvS); err != nil {
		return LeaseResponse{}, fmt.Errorf("ctrlplane: lease %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if req.Epoch < a.lastEpoch {
		a.epochDrops++
	} else {
		// Any renewal from the current (or a newer) epoch is a protocol-
		// clock observation, even when it cannot move the lease: a fenced
		// or safe-mode agent keeps counting the coordinator's intervals,
		// which is what ages its decay correctly.
		a.clk.observe(req.Iv, req.IvS, a.nowLocked(req.T))
		if req.Epoch == a.lastEpoch && !a.fenced && req.Iv >= a.clk.grantIv {
			a.clk.grant(req.Iv, req.LeaseIv, req.IvS)
		}
	}
	resp := LeaseResponse{V: ProtocolV, Epoch: a.lastEpoch, Server: a.cfg.ID, CapW: a.capW, Fenced: a.fenced, Iv: a.clk.seenIv}
	if !a.fenced {
		resp.ExpiresIv = a.clk.boundary()
	}
	return resp, nil
}

// nowLocked advances the agent's clock and returns the reading. An
// agent with its own clock (cfg.Clock — a live daemon) reads that;
// otherwise it adopts t, the coordinator time carried by whatever
// message or tick got it here. Either way the reading never runs
// backward.
func (a *Agent) nowLocked(t float64) float64 {
	if a.cfg.Clock != nil {
		t = a.cfg.Clock()
	}
	if t > a.localT {
		a.localT = t
	}
	return a.localT
}

// Tick advances the agent's clock (to t, unless it has its own) and
// fences the server if its draw lease has lapsed. The daemon calls this
// from its wall-clock loop; the replay harness and handler call it with
// coordinator time.
func (a *Agent) Tick(t float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.nowLocked(t)
	if a.safeMode {
		// Already degrading leaderless: continue the decay.
		return a.applySafeCapLocked(now)
	}
	if a.fenced {
		return nil
	}
	if !a.clk.lapsed(now) {
		return a.learnTickLocked(now)
	}
	if a.cfg.SafeMode.Enabled() {
		// Lease lapsed with safe mode on: hold the last granted cap
		// (fleet sum still bounded by the last cluster cap a leader
		// apportioned); the decay ages from the lease boundary, not from
		// whenever the next tick happened to land.
		a.safeMode = true
		a.fenced = true
		a.fences++
		a.safeEntries++
		a.heldW = a.capW
		return a.applySafeCapLocked(now)
	}
	perf, grid, err := a.cfg.Backend.Apply(a.cfg.FenceCapW)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d fence: %w", a.cfg.ID, err)
	}
	a.capW, a.perfN, a.gridW = a.cfg.FenceCapW, perf, grid
	a.fenced = true
	a.fences++
	return nil
}

// learnTickLocked runs one online-learning step under a live lease:
// observe the cell the enforced cap lands on, then — at most once per
// protocol interval — move the probe to the estimator's next choice.
// Rate-limiting probe moves to interval boundaries keeps the cap from
// flapping within an interval; a converged estimator's probe is the
// full grant, so learning agents settle back onto their grants.
func (a *Agent) learnTickLocked(now float64) error {
	if a.est == nil || a.fenced {
		return nil
	}
	a.est.Observe(a.capW, a.perfN)
	target := a.capW
	if iv := a.clk.effective(now); iv > a.lastProbeIv {
		a.lastProbeIv = iv
		target = a.est.ProbeCap(a.grantW)
	}
	if target == a.capW {
		return nil
	}
	perf, grid, err := a.cfg.Backend.Apply(target)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d probe: %w", a.cfg.ID, err)
	}
	a.capW, a.perfN, a.gridW = target, perf, grid
	return nil
}

// applySafeCapLocked enforces the safe-mode cap at local time now. The
// decay ages by whole protocol intervals past the lapse boundary — an
// integer count times the nominal interval length — so a trace-replay
// fleet and a wall-clock fleet walking the same interval sequence
// enforce bit-identical caps.
func (a *Agent) applySafeCapLocked(now float64) error {
	target := a.cfg.SafeMode.CapAt(float64(a.clk.overdueIv(now))*a.clk.ivS, a.heldW)
	if target == a.capW {
		return nil
	}
	perf, grid, err := a.cfg.Backend.Apply(target)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d safe-mode decay: %w", a.cfg.ID, err)
	}
	a.capW, a.perfN, a.gridW = target, perf, grid
	return nil
}

// Refresh re-applies the enforced cap so the reported perf and draw
// reflect the backend's current workload — the control-plane twin of a
// live daemon re-planning under an unchanged cap when its hosted mix
// shifts. The budget, lease, and fencing ledger are untouched.
func (a *Agent) Refresh() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	perf, grid, err := a.cfg.Backend.Apply(a.capW)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d refresh: %w", a.cfg.ID, err)
	}
	a.perfN, a.gridW = perf, grid
	return nil
}

// Report snapshots the agent for a telemetry scrape: its whole curve and
// that curve's version (the listener leaves out the points of a version
// the scraper holds). A pre-characterized agent builds its cap-utility
// curve lazily on first use and reports that one curve from then on; a
// learning agent reports its current learned curve with
// CurveConf/CurveCells meta instead, or no curve at all before the first
// accepted observation.
func (a *Agent) Report() (Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.est == nil && !a.curveBuilt {
		curve, err := a.cfg.Backend.UtilityCurve()
		if err != nil {
			return Report{}, err
		}
		a.curve.version(curve)
		a.curveBuilt = true
	}
	rep := a.reportLocked()
	if a.est == nil {
		rep.UtilityCurve, rep.CurveVer = a.curve.curve, a.curve.ver
	} else if curve, ok := a.est.Curve(); ok {
		rep.UtilityCurve, rep.CurveConf, rep.CurveCells = curve, a.est.Confidence(), a.est.ObservedCells()
		rep.CurveVer = a.curve.version(curve)
	}
	return rep, nil
}

// reportLocked builds the curveless part of a scrape report.
func (a *Agent) reportLocked() Report {
	return Report{
		V:        ProtocolV,
		Server:   a.cfg.ID,
		Epoch:    a.lastEpoch,
		Seq:      a.lastSeq,
		CapW:     a.capW,
		PerfN:    a.perfN,
		GridW:    a.gridW,
		SoC:      a.cfg.Backend.SoC(),
		Fenced:   a.fenced,
		SafeMode: a.safeMode,

		IdleFloorW: a.cfg.Backend.IdleFloorW(),
		NameplateW: a.cfg.Backend.NameplateW(),
		Version:    a.cfg.Version,
		Iv:         a.clk.seenIv,
	}
}

// Scrape is Tick-then-Report in one call: the server side of a scrape
// frame. hasT is false when the scrape carries no coordinator clock.
func (a *Agent) Scrape(t float64, hasT bool) (Report, error) {
	if hasT {
		if err := a.Tick(t); err != nil {
			return Report{}, err
		}
	}
	return a.Report()
}

// stateLocked builds an AssignResponse from the current state.
func (a *Agent) stateLocked(applied bool) AssignResponse {
	return AssignResponse{
		V: ProtocolV, Server: a.cfg.ID, Epoch: a.lastEpoch, Seq: a.lastSeq, Applied: applied,
		CapW: a.capW, PerfN: a.perfN, GridW: a.gridW,
		SoC: a.cfg.Backend.SoC(), Fenced: a.fenced, SafeMode: a.safeMode,
		Iv: a.clk.seenIv,
	}
}

// AgentStatus is one consistent snapshot of an agent's protocol state:
// what a daemon serves on /healthz, and the one way tests and harnesses
// read an agent.
type AgentStatus struct {
	// CapW is the enforced cap; GridW the draw it settles at, the ground
	// truth a cap check sums.
	CapW  float64
	GridW float64
	// Epoch is the highest coordinator epoch a grant was applied from.
	Epoch uint64
	// Fenced reports the fail-safe cap in force; SafeMode that the agent
	// is fenced but holding/decaying its last grant instead of cliffing.
	Fenced   bool
	SafeMode bool
	// Leased reports an unlapsed draw lease; LeaseExpiresInS is the local
	// clock time left on it at the nominal interval length (0 once the
	// boundary has passed); LeaseExpired reports a lease that was held
	// and has lapsed, as opposed to none granted yet.
	Leased          bool
	LeaseExpiresInS float64
	LeaseExpired    bool
	// Iv is the highest protocol-clock interval observed. ClockSkewIv is
	// the last measured coordinator skew in intervals: positive when the
	// coordinator minted fewer intervals than the local clock counted.
	Iv          uint64
	ClockSkewIv float64
	// Assigns counts applied grants, renewals excluded. Fences counts
	// lease lapses, SafeModeEntries the subset that entered safe mode.
	// StaleDrops counts assigns refused by the sequence check,
	// EpochDrops grants and renewals refused for an older epoch.
	Assigns         int
	Fences          int
	SafeModeEntries int
	StaleDrops      int
	EpochDrops      int
	// Learning, CurveConf, CurveCells and Converged describe the online
	// estimator (zero without one).
	Learning   bool
	CurveConf  float64
	CurveCells int
	Converged  bool
}

// Status snapshots the agent under one lock acquisition. On an agent
// without a Clock it has no side effect.
func (a *Agent) Status() AgentStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AgentStatus{
		CapW: a.capW, GridW: a.gridW, Epoch: a.lastEpoch, Fenced: a.fenced, SafeMode: a.safeMode,
		Leased: !a.fenced, LeaseExpired: a.fenced && a.clk.leaseIv > 0,
		Iv: a.clk.seenIv, ClockSkewIv: a.clk.skewIv,
		Assigns: a.assigns, Fences: a.fences, SafeModeEntries: a.safeEntries,
		StaleDrops: a.staleDrops, EpochDrops: a.epochDrops,
	}
	if st.Leased {
		st.LeaseExpiresInS = a.clk.remainingS(a.nowLocked(a.localT))
	}
	if a.est != nil {
		st.Learning, st.CurveConf, st.CurveCells = true, a.est.Confidence(), a.est.ObservedCells()
		st.Converged = a.est.Converged()
	}
	return st
}

// CapW returns the cap the agent currently enforces.
func (a *Agent) CapW() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capW
}

// PerfN returns the delivered normalized performance.
func (a *Agent) PerfN() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.perfN
}

// LearnConfidence is the learned curve's coverage fraction (0 when not
// learning).
func (a *Agent) LearnConfidence() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.est == nil {
		return 0
	}
	return a.est.Confidence()
}
