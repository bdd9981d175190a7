// Package accountant implements the paper's Accountant (Section III-C):
// the component that keeps track of the server power cap, the scheduled
// applications and their status, polls application power draw, and
// triggers power re-allocation and utility re-calibration on the four
// dynamic events — E1 cap change, E2 application arrival, E3 application
// departure, E4 significant drift between an application's draw and its
// allocated budget (load variation or phase change).
//
// Each trigger opens a re-allocation window in which the accountant
// re-calibrates utility curves (internal/cf) and asks the
// PowerAllocator (R1/R2) for a fresh plan the Coordinator then actuates
// (R3/R4). With a telemetry.Hub attached, every event, replan, and
// calibration is counted and the window is drawn as a plan span on the
// trace timeline (docs/METRICS.md); instrumentation never changes the
// simulation's outputs.
package accountant

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerstruggle/internal/allocator"
	"powerstruggle/internal/coordinator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

// EventKind enumerates the paper's re-allocation triggers.
type EventKind int

// The events of Section III-C.
const (
	// EvCapChange is E1: the datacenter changed this server's budget.
	EvCapChange EventKind = iota
	// EvArrival is E2: a new application was scheduled here.
	EvArrival
	// EvDeparture is E3: an application finished and exited.
	EvDeparture
	// EvPhaseChange is E4: an application's draw drifted from its
	// allocation (load variation or phase change).
	EvPhaseChange
	// EvSLODegraded is an extension event: the admitted SLO floors
	// became infeasible under the current cap and the mediator fell
	// back to best-effort apportioning.
	EvSLODegraded
	// EvHeartbeatLoss is a robustness event: an application's delivered
	// heartbeat total stagnated past the staleness window, so its
	// utility measurements can no longer be trusted and the accountant
	// degrades to fair-share apportioning.
	EvHeartbeatLoss
	// EvHeartbeatRecovered marks heartbeats returning after a loss;
	// utility-aware apportioning resumes.
	EvHeartbeatRecovered
)

// String names the event as the paper does.
func (k EventKind) String() string {
	switch k {
	case EvCapChange:
		return "E1-cap-change"
	case EvArrival:
		return "E2-arrival"
	case EvDeparture:
		return "E3-departure"
	case EvPhaseChange:
		return "E4-phase-change"
	case EvSLODegraded:
		return "slo-degraded"
	case EvHeartbeatLoss:
		return "heartbeat-loss"
	case EvHeartbeatRecovered:
		return "heartbeat-recovered"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one logged trigger with its re-allocation outcome.
type Event struct {
	T    float64
	Kind EventKind
	// App names the application involved (empty for cap changes).
	App string
	// CapW is the cap in force after the event.
	CapW float64
	// Detail is a human-readable description.
	Detail string
}

// arrival is a scheduled application admission.
type arrival struct {
	at      float64
	profile *workload.Profile
	beats   float64
	obj     allocator.Objective
}

// capChange is a scheduled cap update.
type capChange struct {
	at   float64
	capW float64
}

// Config parameterizes the accountant simulation.
type Config struct {
	// HW is the platform.
	HW simhw.Config
	// Policy is the power-management scheme in force.
	Policy policy.Kind
	// Library backs Server+Res-Aware averaging and profile lookups.
	Library *workload.Library
	// InitialCapW is the cap before any scheduled change.
	InitialCapW float64
	// Device is the server's ESD, if any.
	Device *esd.Device
	// Coord carries coordinator tunables.
	Coord coordinator.Config
	// PollSeconds is the status-poll period (the paper polls on the
	// order of microseconds; the default here is one integration step).
	PollSeconds float64
	// ReallocSeconds is the latency of a full re-allocation (sampling,
	// estimation, actuation): the paper measures ~800 ms on its server.
	// Applications run under the previous plan (arrivals stay
	// suspended) until it elapses.
	ReallocSeconds float64
	// DriftFrac is the relative draw-vs-budget divergence that triggers
	// E4; 0 means 0.25.
	DriftFrac float64
	// StepSeconds is the integration step; 0 means 10 ms.
	StepSeconds float64
	// SampleEvery decimates the recorded series; 0 means 0.1 s.
	SampleEvery float64
	// Estimator, when non-nil, supplies learned utility curves at every
	// re-allocation (the paper's online calibration); nil plans from
	// the oracle model.
	Estimator CurveEstimator
	// HeartbeatStaleS is how long an application's delivered-beat total
	// may stagnate before the accountant declares its telemetry lost
	// and degrades to fair-share apportioning (utility measurements
	// from a silent application cannot be trusted); 0 means
	// DefaultHeartbeatStaleS. The check only runs when the coordinator
	// has fault injection enabled — a fault-free run cannot lose beats.
	HeartbeatStaleS float64
	// MaxEvents bounds the in-memory event log; the oldest entries are
	// evicted past the bound. 0 means DefaultMaxLog; negative means
	// unbounded.
	MaxEvents int
	// MaxSamples bounds the recorded timeline the same way.
	MaxSamples int
}

// Defaults for the robustness knobs.
const (
	// DefaultHeartbeatStaleS comfortably exceeds the ModeTime duty
	// period (2 s), so a legitimately OFF application is never declared
	// lost.
	DefaultHeartbeatStaleS = 5.0
	// DefaultMaxLog bounds the event and sample logs of a long-running
	// daemon.
	DefaultMaxLog = 4096
)

func (c *Config) heartbeatStale() float64 {
	if c.HeartbeatStaleS > 0 {
		return c.HeartbeatStaleS
	}
	return DefaultHeartbeatStaleS
}

func (c *Config) maxEvents() int {
	if c.MaxEvents != 0 {
		return c.MaxEvents
	}
	return DefaultMaxLog
}

func (c *Config) maxSamples() int {
	if c.MaxSamples != 0 {
		return c.MaxSamples
	}
	return DefaultMaxLog
}

// CurveEstimator produces a utility curve for an application from
// online measurements — the Accountant-facing face of the
// collaborative-filtering pipeline.
type CurveEstimator interface {
	Curve(p *workload.Profile) (*workload.Curve, error)
}

func (c *Config) driftFrac() float64 {
	if c.DriftFrac > 0 {
		return c.DriftFrac
	}
	return 0.25
}

// Sim is a scriptable accountant-driven server simulation.
type Sim struct {
	cfg      Config
	ex       *coordinator.Executor
	names    []string
	objs     []allocator.Objective
	anySLO   bool
	arrivals []arrival
	caps     []capChange
	// waiting holds admitted-but-unplaceable applications (direct
	// resources exhausted); they enter as earlier tenants depart.
	waiting []arrival

	events  ring[Event]
	samples ring[AppSample]

	pendingRealloc float64 // seconds left before the next plan lands
	reallocQueued  bool
	reallocStart   float64 // when the open window's first trigger fired
	lastPoll       float64

	tel simTel

	// Heartbeat-loss tracking (parallel to the active application set):
	// the last seen delivered-beat total, when it last advanced, and
	// whether the application is currently declared lost.
	hbTotal  []float64
	hbSeenAt []float64
	hbLost   []bool
	degraded bool
	lastHB   float64
}

// AppSample extends the executor sample with per-application identity and
// knob state, for Fig 11-style timelines.
type AppSample struct {
	T     float64
	CapW  float64
	GridW float64
	SoC   float64
	// Apps carries one entry per active application.
	Apps []AppState
}

// AppState is one application's observable state at a sample.
type AppState struct {
	Name    string
	PowerW  float64
	BudgetW float64
	Knobs   workload.Knobs
	Perf    float64 // schedule-predicted normalized perf
	// RateHz is the measured heartbeat rate over the monitor window.
	RateHz float64
}

// NewSim builds an accountant simulation.
func NewSim(cfg Config) (*Sim, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("accountant: config needs the application library")
	}
	if cfg.InitialCapW <= 0 {
		return nil, fmt.Errorf("accountant: initial cap %.1f W is invalid", cfg.InitialCapW)
	}
	cc := cfg.Coord
	cc.HW = cfg.HW
	cc.CapW = cfg.InitialCapW
	ex, err := coordinator.NewExecutor(cc, cfg.Device)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, ex: ex,
		events:  newRing[Event](cfg.maxEvents()),
		samples: newRing[AppSample](cfg.maxSamples()),
	}
	s.tel = newSimTel(cc.Telemetry)
	return s, nil
}

// AddArrival schedules an application to arrive at time at with beats of
// work (0 for endless), best-effort with unit weight.
func (s *Sim) AddArrival(at float64, p *workload.Profile, beats float64) error {
	return s.AddArrivalCritical(at, p, beats, 1, 0)
}

// AddArrivalCritical schedules an application with a weighted objective
// term and an SLO floor (the latency-critical admission of the
// weighted-objective extension).
func (s *Sim) AddArrivalCritical(at float64, p *workload.Profile, beats, weight, floorPerf float64) error {
	if p == nil {
		return fmt.Errorf("accountant: arrival needs a profile")
	}
	if at < 0 {
		return fmt.Errorf("accountant: arrival at %g s", at)
	}
	if weight <= 0 {
		return fmt.Errorf("accountant: %s: weight %g must be positive", p.Name, weight)
	}
	if floorPerf < 0 || floorPerf > 1 {
		return fmt.Errorf("accountant: %s: floor %g outside [0, 1]", p.Name, floorPerf)
	}
	s.arrivals = append(s.arrivals, arrival{
		at: at, profile: p, beats: beats,
		obj: allocator.Objective{Weight: weight, FloorPerf: floorPerf},
	})
	return nil
}

// AddCapChange schedules the server cap to become capW at time at (E1).
func (s *Sim) AddCapChange(at, capW float64) error {
	if capW <= 0 {
		return fmt.Errorf("accountant: cap change to %.1f W is invalid", capW)
	}
	s.caps = append(s.caps, capChange{at: at, capW: capW})
	return nil
}

// Events returns the logged events in time order.
func (s *Sim) Events() []Event { return s.events.slice() }

// Samples returns the recorded timeline.
func (s *Sim) Samples() []AppSample { return s.samples.slice() }

// LastSample returns the newest telemetry sample without copying the
// timeline (the zero sample before the first one is taken).
func (s *Sim) LastSample() AppSample { return s.samples.last() }

// replan runs the policy over the active applications and installs the
// new schedule. It plans against each application's *effective*
// (phase-resolved) profile — the re-calibration of utility curves the
// paper's E4 path performs — so a phase change converges to a matching
// allocation instead of re-triggering forever.
func (s *Sim) replan() error {
	if s.ex.Apps() == 0 {
		return nil
	}
	if s.tel.enabled {
		defer s.tel.observeReplan(time.Now())
	}
	profiles := make([]*workload.Profile, s.ex.Apps())
	for i := range profiles {
		profiles[i] = s.ex.Instance(i).Effective()
	}
	ctx := policy.Context{
		HW:       s.cfg.HW,
		CapW:     s.ex.Cap(),
		Profiles: profiles,
		Library:  s.cfg.Library,
		Device:   s.ex.Device(),
		Coord:    s.cfg.Coord,
	}
	if s.degraded {
		// With telemetry lost the utility measurements backing the
		// policy are untrustworthy: fall back to the fair equal split
		// and plan from static models only.
		dec, err := policy.Plan(policy.UtilUnaware, ctx)
		if err != nil {
			return err
		}
		return s.ex.SetSchedule(dec.Schedule)
	}
	if s.anySLO {
		ctx.Objectives = append([]allocator.Objective(nil), s.objs...)
	}
	if s.cfg.Estimator != nil {
		ctx.CurveOverride = func(i int, p *workload.Profile) *workload.Curve {
			var start time.Time
			if s.tel.enabled {
				start = time.Now()
			}
			// Estimation failures fall back (nil) to the policy's own
			// curve construction; they are not fatal.
			c, err := s.cfg.Estimator.Curve(p)
			if s.tel.enabled {
				s.tel.observeCalibration(start)
				s.tel.tracer.Instant("calibrate", telemetry.CatCalibrate,
					telemetry.TidAccountant, s.ex.Now(),
					telemetry.A("app", p.Name), telemetry.A("ok", err == nil))
			}
			if err != nil {
				return nil
			}
			return c
		}
	}
	dec, err := policy.Plan(s.cfg.Policy, ctx)
	if err != nil && ctx.Objectives != nil && errors.Is(err, allocator.ErrInfeasible) {
		// The floors no longer fit (typically after a cap drop):
		// degrade to best-effort rather than stalling the server.
		s.logEvent(EvSLODegraded, "", "SLO floors infeasible under the current cap; best-effort apportioning")
		ctx.Objectives = nil
		dec, err = policy.Plan(s.cfg.Policy, ctx)
	}
	if err != nil {
		return err
	}
	return s.ex.SetSchedule(dec.Schedule)
}

// tryAdmit places an arrival or, when the direct resources are
// exhausted, parks it on the waiting queue (the paper assumes sufficient
// direct resources; a real cluster scheduler would route elsewhere).
func (s *Sim) tryAdmit(a arrival) error {
	inst, err := workload.NewInstance(a.profile, a.beats)
	if err != nil {
		return err
	}
	if _, err := s.ex.AddApp(a.profile, inst); err != nil {
		s.waiting = append(s.waiting, a)
		s.logEvent(EvArrival, a.profile.Name, "no free direct resources; queued")
		return nil
	}
	s.names = append(s.names, a.profile.Name)
	s.objs = append(s.objs, a.obj)
	s.hbTotal = append(s.hbTotal, 0)
	s.hbSeenAt = append(s.hbSeenAt, s.ex.Now())
	s.hbLost = append(s.hbLost, false)
	if a.obj.Weight != 1 || a.obj.FloorPerf > 0 {
		s.anySLO = true
	}
	s.logEvent(EvArrival, a.profile.Name, "calibrating utilities and re-allocating")
	s.queueRealloc()
	return nil
}

// Waiting returns the number of admitted-but-unplaced applications.
func (s *Sim) Waiting() int { return len(s.waiting) }

// queueRealloc starts (or restarts) the re-allocation latency window.
func (s *Sim) queueRealloc() {
	if !s.reallocQueued {
		s.reallocStart = s.ex.Now()
	}
	s.pendingRealloc = s.cfg.ReallocSeconds
	s.reallocQueued = true
}

// logEvent records a trigger, evicting the oldest entries past the
// configured bound.
func (s *Sim) logEvent(kind EventKind, app, detail string) {
	if s.tel.enabled {
		s.tel.events.With(kind.String()).Inc()
		s.tel.tracer.Instant(kind.String(), telemetry.CatPlan, telemetry.TidAccountant,
			s.ex.Now(), telemetry.A("app", app), telemetry.A("detail", detail))
	}
	s.events.push(Event{T: s.ex.Now(), Kind: kind, App: app, CapW: s.ex.Cap(), Detail: detail})
}

// EventsDropped counts events evicted from the bounded log.
func (s *Sim) EventsDropped() int { return s.events.dropped }

// SamplesDropped counts samples evicted from the bounded timeline.
func (s *Sim) SamplesDropped() int { return s.samples.dropped }

// Degraded reports whether the accountant is currently in fair-share
// degraded mode because an application's heartbeats went missing.
func (s *Sim) Degraded() bool { return s.degraded }

// Executor exposes the underlying hardened executor (fault log, watchdog
// counters).
func (s *Sim) Executor() *coordinator.Executor { return s.ex }

// faultsEnabled reports whether the coordinator runs with fault
// injection — the only regime in which heartbeat loss can happen.
func (s *Sim) faultsEnabled() bool {
	f := s.cfg.Coord.Faults
	return f != nil && f.Enabled()
}

// refreshDegraded recomputes the degraded flag from the per-application
// loss states.
func (s *Sim) refreshDegraded() {
	s.degraded = false
	for _, lost := range s.hbLost {
		if lost {
			s.degraded = true
			return
		}
	}
}

// checkHeartbeats advances the per-application telemetry-loss state: a
// delivered-beat total that advanced clears a loss; one stagnant past
// the staleness window declares it. Either transition re-plans.
func (s *Sim) checkHeartbeats(now float64) {
	for i := 0; i < s.ex.Apps() && i < len(s.hbTotal); i++ {
		tot, err := s.ex.HeartbeatTotal(i)
		if err != nil {
			continue
		}
		if tot > s.hbTotal[i] {
			s.hbTotal[i] = tot
			s.hbSeenAt[i] = now
			if s.hbLost[i] {
				s.hbLost[i] = false
				s.logEvent(EvHeartbeatRecovered, s.names[i], "heartbeats returned; utility-aware apportioning restored")
				s.queueRealloc()
			}
			continue
		}
		if !s.hbLost[i] && now-s.hbSeenAt[i] > s.cfg.heartbeatStale() {
			s.hbLost[i] = true
			s.logEvent(EvHeartbeatLoss, s.names[i],
				fmt.Sprintf("no beats for %.1f s; degrading to fair-share apportioning", now-s.hbSeenAt[i]))
			s.queueRealloc()
		}
	}
	s.refreshDegraded()
}

// Run advances the simulation for seconds of simulated time.
func (s *Sim) Run(seconds float64) error {
	dt := s.cfg.StepSeconds
	if dt <= 0 {
		dt = 0.01
	}
	sampleEvery := s.cfg.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = 0.1
	}
	poll := s.cfg.PollSeconds
	if poll <= 0 {
		poll = dt
	}
	drift := s.cfg.driftFrac()
	end := s.ex.Now() + seconds
	lastSample := math.Inf(-1)

	for s.ex.Now() < end-dt/2 {
		now := s.ex.Now()

		// E1: cap schedule.
		for i := 0; i < len(s.caps); i++ {
			if s.caps[i].at <= now+1e-12 {
				s.ex.SetCap(s.caps[i].capW)
				s.logEvent(EvCapChange, "", fmt.Sprintf("cap -> %.1f W", s.caps[i].capW))
				s.caps = append(s.caps[:i], s.caps[i+1:]...)
				i--
				s.queueRealloc()
			}
		}
		// E2: arrivals. Applications that cannot be placed (direct
		// resources exhausted) wait for a departure.
		for i := 0; i < len(s.arrivals); i++ {
			if s.arrivals[i].at <= now+1e-12 {
				a := s.arrivals[i]
				s.arrivals = append(s.arrivals[:i], s.arrivals[i+1:]...)
				i--
				if err := s.tryAdmit(a); err != nil {
					return err
				}
			}
		}
		// E3: departures.
		for i := 0; i < s.ex.Apps(); i++ {
			if s.ex.Instance(i).Done() {
				name := s.names[i]
				if err := s.ex.RemoveApp(i); err != nil {
					return err
				}
				s.names = append(s.names[:i], s.names[i+1:]...)
				s.objs = append(s.objs[:i], s.objs[i+1:]...)
				s.hbTotal = append(s.hbTotal[:i], s.hbTotal[i+1:]...)
				s.hbSeenAt = append(s.hbSeenAt[:i], s.hbSeenAt[i+1:]...)
				s.hbLost = append(s.hbLost[:i], s.hbLost[i+1:]...)
				s.refreshDegraded()
				s.logEvent(EvDeparture, name, "re-apportioning available power")
				i--
				s.queueRealloc()
				// Departures re-plan immediately: freeing power needs
				// no calibration.
				s.pendingRealloc = 0
				// A freed slot may admit a waiting application.
				if len(s.waiting) > 0 {
					a := s.waiting[0]
					s.waiting = s.waiting[1:]
					if err := s.tryAdmit(a); err != nil {
						return err
					}
				}
			}
		}

		// Serve the re-allocation latency, then install the new plan.
		if s.reallocQueued {
			s.pendingRealloc -= dt
			if s.pendingRealloc <= 0 {
				s.reallocQueued = false
				var prevBudgets []float64
				if s.tel.enabled {
					if sched, ok := s.ex.Schedule(); ok {
						prevBudgets = append(prevBudgets, sched.AppBudgetW...)
					}
				}
				if err := s.replan(); err != nil {
					return err
				}
				if s.tel.enabled {
					s.emitPlanSpan(s.reallocStart)
					s.recordApportionDeltas(prevBudgets)
				}
			}
		}

		// Advance one step. The installed schedule is read once, after
		// any re-plan; nothing below changes it.
		var (
			sample coordinator.Sample
			err    error
		)
		sched, haveSched := s.ex.Schedule()
		switch {
		case haveSched && !s.reallocQueued:
			sample, err = s.ex.Step(dt)
		case haveSched && s.scheduleMatches(&sched):
			// Existing applications keep running under the old plan
			// during re-allocation; a schedule that no longer matches
			// the application set cannot, so the server idles.
			sample, err = s.ex.Step(dt)
		default:
			sample, err = s.ex.Idle(dt)
		}
		if err != nil {
			return err
		}

		// Telemetry-loss watch: runs on its own poll clock so a busy
		// re-allocation queue cannot starve it, and only under fault
		// injection so fault-free runs stay untouched.
		if s.faultsEnabled() && now-s.lastHB >= poll-1e-12 {
			s.lastHB = now
			s.tel.hbChecks.Inc()
			s.checkHeartbeats(now)
		}

		// E4: poll draw vs budget.
		if now-s.lastPoll >= poll-1e-12 && !s.reallocQueued {
			s.lastPoll = now
			s.tel.polls.Inc()
			if haveSched && len(sched.AppBudgetW) == s.ex.Apps() {
				for i := 0; i < s.ex.Apps(); i++ {
					budget := sched.AppBudgetW[i]
					if budget <= 0 {
						continue
					}
					if math.Abs(sample.AppW[i]-budget) > drift*budget {
						s.logEvent(EvPhaseChange, s.names[i],
							fmt.Sprintf("draw %.1f W vs budget %.1f W", sample.AppW[i], budget))
						s.queueRealloc()
						break
					}
				}
			}
		}

		if s.tel.enabled {
			s.setGauges()
		}

		// Record.
		if s.ex.Now()-lastSample >= sampleEvery-1e-12 {
			lastSample = s.ex.Now()
			s.samples.push(s.appSample(sample, &sched, haveSched))
		}
	}
	return nil
}

// scheduleMatches reports whether the installed schedule's application
// indexing still matches the active set.
func (s *Sim) scheduleMatches(sched *coordinator.Schedule) bool {
	// A schedule planned before an arrival still indexes correctly
	// (newcomers append at the end and stay suspended); one planned
	// before a departure does not, but departures re-plan immediately.
	return len(sched.AppBudgetW) <= s.ex.Apps()
}

// appSample dresses an executor sample with identity and knob state
// from the installed schedule. It copies what it keeps, so the sample's
// AppW may be the executor's reused buffer.
func (s *Sim) appSample(c coordinator.Sample, sched *coordinator.Schedule, haveSched bool) AppSample {
	out := AppSample{T: c.T, CapW: s.ex.Cap(), GridW: c.GridW, SoC: c.SoC,
		Apps: make([]AppState, 0, s.ex.Apps())}
	for i := 0; i < s.ex.Apps(); i++ {
		st := AppState{Name: s.names[i]}
		if i < len(c.AppW) {
			st.PowerW = c.AppW[i]
		}
		if r, err := s.ex.HeartbeatRate(i); err == nil {
			st.RateHz = r
		}
		if haveSched && i < len(sched.AppBudgetW) {
			st.BudgetW = sched.AppBudgetW[i]
			st.Perf = sched.AppPerf[i]
			for _, seg := range sched.Segments {
				if sk, ok := seg.Run[i]; ok {
					st.Knobs = sk.Knobs
					break
				}
			}
		}
		out.Apps = append(out.Apps, st)
	}
	return out
}
