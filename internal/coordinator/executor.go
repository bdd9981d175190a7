package coordinator

import (
	"fmt"
	"math"

	"powerstruggle/internal/esd"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/heartbeat"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

// Platform is the slice of the simulated server the executor actuates
// and observes. Both *simhw.Server (the fault-free fast path) and
// *faults.Server (the injected-fault wrapper) satisfy it, so the
// executor's hardening is exercised against real failure modes without
// the fault-free path paying anything.
type Platform interface {
	Claim(cores int) (simhw.SlotID, error)
	Release(id simhw.SlotID) error
	SetKnobs(id simhw.SlotID, freqGHz float64, cores int, memWatts float64) error
	SetLoad(id simhw.SlotID, activity, memDrawWatts float64) error
	SetRunning(id simhw.SlotID, running bool) error
	Sleep() error
	Slot(id simhw.SlotID) (simhw.SlotState, error)
	AppPowerWatts(id simhw.SlotID) (float64, error)
	Step(dt float64)
	Waking() bool
}

// BeatSink is where the executor publishes delivered work. The bare
// monitor delivers every beat; the fault wrapper loses some.
type BeatSink interface {
	Beat(name string, t, count float64) error
}

// Store is the slice of the ESD the executor drives. Both *esd.Device
// and *faults.Device satisfy it.
type Store interface {
	SoC() float64
	AvailableJ() float64
	Charge(watts, dt float64) float64
	Discharge(watts, dt float64) float64
	Idle(dt float64)
}

// Executor drives one simulated server through coordinator schedules over
// continuous time, across application arrivals and departures and
// schedule changes — the execution half of the paper's runtime that the
// Accountant steers. With fault injection enabled it is also the
// hardened mediation loop: transient actuation failures are retried with
// exponential backoff, and a cap-breach watchdog clamps the server to an
// emergency floor when measured draw stays over the cap.
type Executor struct {
	cfg Config
	srv Platform
	raw *simhw.Server
	dev *esd.Device
	// store and beats are the (possibly fault-wrapped) actuation views
	// of dev and hb; fault-free they alias them exactly.
	store Store
	hb    *heartbeat.Monitor
	beats BeatSink
	inj   *faults.Injector
	flog  *faults.Log

	profiles  []*workload.Profile
	instances []*workload.Instance
	slots     []simhw.SlotID
	// hbNames[i] is application i's heartbeat producer name, formatted
	// when the application set changes rather than on every step.
	hbNames []string

	sched       Schedule
	haveSched   bool
	pos         float64 // position within the schedule period
	bounds      []float64
	restoreLeft []float64
	prevRunning []bool

	// cur, effRun and appW are per-application step buffers: the
	// resolved segment entries, the effective-run vector and the
	// Sample.AppW. Step overwrites all three, Idle only appW.
	cur    []stepApp
	effRun []bool
	appW   []float64

	// Per-application retry backoff: after retries exhaust, the
	// actuator is left alone until retryAt, doubling backoffS each
	// consecutive failure (bounded) — the standard pressure-relief for
	// a flapping actuator.
	backoffS []float64
	retryAt  []float64

	wd watchdog

	tel execTel

	now float64
}

// NewExecutor builds an executor for one server. dev may be nil. Every
// application's delivered work is published to the executor's heartbeat
// monitor under "<name>#<index>", the measurement interface the paper's
// runtime reads performance from.
func NewExecutor(cfg Config, dev *esd.Device) (*Executor, error) {
	raw, err := simhw.NewServer(cfg.HW)
	if err != nil {
		return nil, err
	}
	e := &Executor{cfg: cfg, raw: raw, dev: dev, hb: heartbeat.NewMonitor()}
	e.srv = raw
	e.beats = e.hb
	if dev != nil {
		e.store = dev
	}
	e.tel = newExecTel(cfg.Telemetry)
	e.nameTenantTracks()
	e.wd.recoverAt = -1
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj, err := faults.NewInjector(*cfg.Faults)
		if err != nil {
			return nil, err
		}
		now := func() float64 { return e.now }
		e.inj = inj
		e.flog = inj.Log()
		if e.tel.enabled {
			injected := e.tel.injected
			inj.SetObserver(func(kind string) { injected.With(kind).Inc() })
		}
		e.srv = faults.NewServer(inj, raw)
		e.beats = faults.NewHeartbeats(inj, e.hb, now)
		if dev != nil {
			e.store = faults.NewDevice(inj, dev, now)
		}
		e.wd.enabled = true
	}
	if cfg.Watchdog {
		e.wd.enabled = true
	}
	if e.wd.enabled && e.flog == nil {
		e.flog = faults.NewLog(0)
	}
	return e, nil
}

// Heartbeats exposes the executor's heartbeat monitor.
func (e *Executor) Heartbeats() *heartbeat.Monitor { return e.hb }

// HeartbeatRate returns application i's windowed heartbeat rate
// (beats/second) as of now.
func (e *Executor) HeartbeatRate(i int) (float64, error) {
	if i < 0 || i >= len(e.profiles) {
		return 0, fmt.Errorf("coordinator: HeartbeatRate(%d) with %d applications", i, len(e.profiles))
	}
	return e.hb.Rate(e.hbName(i), e.now)
}

// HeartbeatTotal returns application i's lifetime delivered beat count
// as the monitor received it — the signal the accountant watches for
// telemetry loss.
func (e *Executor) HeartbeatTotal(i int) (float64, error) {
	if i < 0 || i >= len(e.profiles) {
		return 0, fmt.Errorf("coordinator: HeartbeatTotal(%d) with %d applications", i, len(e.profiles))
	}
	return e.hb.Total(e.hbName(i))
}

// hbName is application i's heartbeat producer name.
func (e *Executor) hbName(i int) string { return e.hbNames[i] }

// formatHBName formats the heartbeat producer name of application i.
func (e *Executor) formatHBName(i int) string {
	return fmt.Sprintf("%s#%d", e.profiles[i].Name, i)
}

// SetCap updates the server power cap (the paper's event E1 actuation).
func (e *Executor) SetCap(w float64) { e.cfg.CapW = w }

// Cap returns the current power cap.
func (e *Executor) Cap() float64 { return e.cfg.CapW }

// Config returns the executor's coordinator configuration.
func (e *Executor) Config() Config { return e.cfg }

// Device returns the attached ESD, or nil.
func (e *Executor) Device() *esd.Device { return e.dev }

// Now returns seconds of simulated time.
func (e *Executor) Now() float64 { return e.now }

// AddApp places an application on the server and returns its index.
// The caller must install a fresh schedule before the next Step.
func (e *Executor) AddApp(p *workload.Profile, inst *workload.Instance) (int, error) {
	if p == nil || inst == nil {
		return 0, fmt.Errorf("coordinator: AddApp needs a profile and an instance")
	}
	id, err := e.srv.Claim(p.MaxCores)
	if err != nil {
		return 0, fmt.Errorf("coordinator: placing %s: %w", p.Name, err)
	}
	e.profiles = append(e.profiles, p)
	e.instances = append(e.instances, inst)
	e.slots = append(e.slots, id)
	e.restoreLeft = append(e.restoreLeft, 0)
	e.prevRunning = append(e.prevRunning, false)
	e.cur = append(e.cur, stepApp{})
	e.effRun = append(e.effRun, false)
	e.appW = append(e.appW, 0)
	e.backoffS = append(e.backoffS, 0)
	e.retryAt = append(e.retryAt, 0)
	idx := len(e.profiles) - 1
	e.hbNames = append(e.hbNames, e.formatHBName(idx))
	if err := e.hb.Register(e.hbName(idx), hbWindowS); err != nil {
		return 0, err
	}
	e.nameTenantTracks()
	// An installed schedule stays valid: it references only the older
	// indices, so the newcomer simply stays suspended until the next
	// plan — exactly the paper's behaviour during re-allocation.
	return idx, nil
}

// RemoveApp releases an application's resources. Remaining applications'
// indices compact down; the caller must install a fresh schedule before
// the next Step.
func (e *Executor) RemoveApp(i int) error {
	if i < 0 || i >= len(e.profiles) {
		return fmt.Errorf("coordinator: RemoveApp(%d) with %d applications", i, len(e.profiles))
	}
	if err := e.srv.Release(e.slots[i]); err != nil {
		return err
	}
	// Heartbeat producers are index-suffixed; drop them all and
	// re-register under the compacted indices.
	for j := range e.profiles {
		e.hb.Unregister(e.hbName(j))
	}
	e.profiles = append(e.profiles[:i], e.profiles[i+1:]...)
	e.instances = append(e.instances[:i], e.instances[i+1:]...)
	e.slots = append(e.slots[:i], e.slots[i+1:]...)
	e.restoreLeft = append(e.restoreLeft[:i], e.restoreLeft[i+1:]...)
	e.prevRunning = append(e.prevRunning[:i], e.prevRunning[i+1:]...)
	e.backoffS = append(e.backoffS[:i], e.backoffS[i+1:]...)
	e.retryAt = append(e.retryAt[:i], e.retryAt[i+1:]...)
	e.cur = e.cur[:len(e.profiles)]
	e.effRun = e.effRun[:len(e.profiles)]
	e.appW = e.appW[:len(e.profiles)]
	e.hbNames = e.hbNames[:len(e.profiles)]
	for j := range e.profiles {
		e.hbNames[j] = e.formatHBName(j)
		if err := e.hb.Register(e.hbName(j), hbWindowS); err != nil {
			return err
		}
	}
	e.nameTenantTracks()
	e.haveSched = false
	return nil
}

// hbWindowS is the heartbeat rate-averaging window.
const hbWindowS = 2.0

// Apps returns the active application count.
func (e *Executor) Apps() int { return len(e.profiles) }

// Profile returns the i-th application's profile.
func (e *Executor) Profile(i int) *workload.Profile { return e.profiles[i] }

// Instance returns the i-th application's instance.
func (e *Executor) Instance(i int) *workload.Instance { return e.instances[i] }

// SetSchedule installs a schedule. Segment Run maps index the current
// application order.
func (e *Executor) SetSchedule(s Schedule) error {
	if len(s.Segments) == 0 {
		return fmt.Errorf("coordinator: empty schedule")
	}
	period := s.PeriodS
	if period <= 0 {
		for _, seg := range s.Segments {
			period += seg.Seconds
		}
		s.PeriodS = period
	}
	if period <= 0 {
		return fmt.Errorf("coordinator: schedule has zero period")
	}
	for _, seg := range s.Segments {
		for i := range seg.Run {
			if i < 0 || i >= len(e.profiles) {
				return fmt.Errorf("coordinator: schedule references application %d of %d", i, len(e.profiles))
			}
		}
	}
	e.sched = s
	e.haveSched = true
	e.pos = 0
	e.bounds = make([]float64, len(s.Segments)+1)
	for i, seg := range s.Segments {
		e.bounds[i+1] = e.bounds[i] + seg.Seconds
	}
	return nil
}

// Schedule returns the installed schedule (zero value if none).
func (e *Executor) Schedule() (Schedule, bool) { return e.sched, e.haveSched }

// Idle advances time with every application suspended and no ESD
// activity — the state between an arrival and the first plan. The
// sample's AppW is valid until the next Step or Idle.
func (e *Executor) Idle(dt float64) (Sample, error) {
	for i := range e.profiles {
		ok, err := e.writeRunning(i, false)
		if err != nil {
			return Sample{}, err
		}
		if ok {
			e.prevRunning[i] = false
		}
		// A degraded suspend leaves the task running; the next Step's
		// watchdog accounting sees its draw.
	}
	e.srv.Step(dt)
	if e.store != nil {
		e.store.Idle(dt)
	}
	e.now += dt
	clear(e.appW)
	s := Sample{T: e.now, ServerW: e.cfg.HW.PIdleWatts, GridW: e.cfg.HW.PIdleWatts, AppW: e.appW}
	if e.store != nil {
		s.SoC = e.store.SoC()
	}
	return s, nil
}

// Step advances the installed schedule by dt seconds and returns the
// step's sample. Applications with finite work may complete during the
// step; the caller detects that via their instances. The sample's AppW
// is the executor's own buffer: it is valid until the next Step or Idle,
// so a caller that keeps samples clones it (Runner does).
func (e *Executor) Step(dt float64) (Sample, error) {
	if !e.haveSched {
		return Sample{}, fmt.Errorf("coordinator: no schedule installed")
	}
	if dt <= 0 {
		return Sample{}, fmt.Errorf("coordinator: step of %g s", dt)
	}
	seg := e.segmentAt(e.pos)

	// Brownout guard: an ON phase that banks on discharge power the
	// device cannot deliver would push the grid over the cap. When the
	// store cannot cover this step, the applications stay suspended and
	// the step charges instead — the emergency clamp a RAPL hard limit
	// provides on real hardware.
	if seg.DischargeW > 0 && e.store != nil && e.store.AvailableJ() < seg.DischargeW*dt {
		charge := e.cfg.HW.ChargeHeadroom(e.cfg.CapW)
		seg = Segment{Seconds: seg.Seconds, Sleep: true, ChargeW: charge}
	}

	// Watchdog bookkeeping from previous intervals: finish an expired
	// recovery ramp, engage the clamp when the breach run hit K.
	if e.wd.enabled {
		e.watchdogPrepare()
	}

	// Actuate every application for this segment.
	cur := e.resolve(seg)
	effRun, err := e.actuateSegment(seg, cur)
	if err != nil {
		return Sample{}, err
	}

	// Advance applications and compose duty-averaged power. Power is
	// gated on the platform's measured per-slot draw (w > 0), not on
	// schedule intent: a task whose suspend was lost keeps drawing and
	// must stay visible to the watchdog.
	appW := e.appW
	serverW := e.cfg.HW.PIdleWatts
	anyRun := false
	waking := e.srv.Waking()
	for i := range e.profiles {
		a := &cur[i]
		duty := 1.0
		if a.scheduled && a.sk.Duty > 0 && a.sk.Duty < 1 {
			duty = a.sk.Duty
		}
		progressDt := dt * duty
		if e.restoreLeft[i] > 0 {
			burn := math.Min(e.restoreLeft[i], progressDt)
			e.restoreLeft[i] -= burn
			progressDt -= burn
		}
		if a.scheduled && effRun[i] && !waking {
			delivered := e.instances[i].Advance(e.cfg.HW, a.k, true, progressDt)
			if delivered > 0 {
				if err := e.beats.Beat(e.hbName(i), e.now+dt, delivered); err != nil {
					return Sample{}, err
				}
			}
		}
		w, err := e.srv.AppPowerWatts(e.slots[i])
		if err != nil {
			return Sample{}, err
		}
		appW[i] = w * duty
		if w > 0 {
			anyRun = true
			serverW += appW[i]
		}
	}
	if anyRun {
		serverW += e.cfg.HW.PCmWatts
	}
	e.srv.Step(dt)

	gridW := serverW
	soc := 0.0
	if e.store != nil {
		switch {
		case e.wd.engaged && e.wd.suspend:
			// Emergency suspend: no scheduled ESD activity either.
			e.store.Idle(dt)
		case seg.ChargeW > 0:
			gridW += e.store.Charge(seg.ChargeW, dt)
		case seg.DischargeW > 0:
			gridW -= e.store.Discharge(seg.DischargeW, dt)
		default:
			e.store.Idle(dt)
		}
		soc = e.store.SoC()
	}

	// Cap adherence is about grid draw: ESD discharge legitimately lets
	// the server exceed the cap while the grid stays under it.
	if e.wd.enabled {
		e.watchdogObserve(gridW)
	}

	if e.tel.enabled {
		e.tel.intervals.Inc()
		e.tel.gridW.Set(gridW)
		e.tel.serverW.Set(serverW)
		e.tel.capW.Set(e.cfg.CapW)
		e.tel.soc.Set(soc)
		if over := gridW - e.cfg.CapW; over > capSlack {
			e.tel.overshootW.Observe(over)
			e.tel.breachSteps.Inc()
		}
		e.emitStepSpans(e.now, dt, seg, effRun, appW, gridW, serverW, soc)
	}

	e.pos = math.Mod(e.pos+dt, e.sched.PeriodS)
	e.now += dt
	return Sample{T: e.now, ServerW: serverW, GridW: gridW, SoC: soc, AppW: appW}, nil
}

// stepApp is one application's entry in the segment a step executes.
type stepApp struct {
	sk        SegKnob
	scheduled bool
	// k is knobsFor(i, sk), meaningful only when scheduled.
	k workload.Knobs
}

// resolve looks every application up in seg and resolves its knobs, once
// per step: it runs after the watchdog bookkeeping, and nothing between
// it and the end of the step changes what knobsFor returns.
func (e *Executor) resolve(seg Segment) []stepApp {
	cur := e.cur
	for i := range cur {
		sk, ok := seg.Run[i]
		cur[i] = stepApp{sk: sk, scheduled: ok}
		if ok {
			cur[i].k = e.knobsFor(i, sk)
		}
	}
	return cur
}

// knobsFor resolves application i's knobs for this step: the schedule's
// knobs clamped to the hardware, overridden to the emergency floor while
// the watchdog clamp is engaged, and frequency-limited along the
// recovery ramp after a release.
func (e *Executor) knobsFor(i int, sk SegKnob) workload.Knobs {
	// Phases never change MaxCores, so the base profile's is the
	// effective one's.
	k := sk.Knobs.Clamp(e.cfg.HW, e.instances[i].Profile.MaxCores)
	switch {
	case e.wd.engaged && !e.wd.suspend:
		k.FreqGHz = e.cfg.HW.FreqMinGHz
		k.MemWatts = e.cfg.HW.MemMinWatts
	case e.wd.recoverAt >= 0:
		frac := (e.now - e.wd.recoverAt) / e.cfg.watchdogRecovery()
		f := e.cfg.HW.FreqMinGHz + frac*(k.FreqGHz-e.cfg.HW.FreqMinGHz)
		k.FreqGHz = e.cfg.HW.ClampFreq(f)
	}
	return k
}

// actuateSegment applies one segment's run/suspend/knob pattern, as
// resolved into cur, and returns each application's effective running
// state in the executor's effRun buffer. While the watchdog clamp is
// engaged it substitutes the emergency pattern.
func (e *Executor) actuateSegment(seg Segment, cur []stepApp) ([]bool, error) {
	if e.wd.engaged {
		return e.clampSegment(seg, cur)
	}
	n := len(e.profiles)
	effRun := e.effRun
	for i := 0; i < n; i++ {
		running := cur[i].scheduled
		if e.inj != nil && e.now < e.retryAt[i] {
			// Backing off a flapping actuator: hold the previous state.
			effRun[i] = e.prevRunning[i]
			continue
		}
		knobsOK := true
		if running {
			if !e.prevRunning[i] && seg.Restore[i] {
				e.restoreLeft[i] = e.cfg.restore()
			}
			if err := e.writeKnobs(i, cur[i].k); err != nil {
				if !faults.IsTransient(err) {
					return nil, err
				}
				// Degraded: the slot runs on with stale knobs.
				knobsOK = false
			}
		}
		runOK, err := e.writeRunning(i, running)
		if err != nil {
			return nil, err
		}
		if runOK {
			effRun[i] = running
		} else {
			effRun[i] = e.prevRunning[i]
		}
		if knobsOK && runOK && e.backoffS[i] > 0 {
			e.backoffS[i] = 0
			e.recordEvent("actuation-recovered", e.hbName(i), "actuator healthy again; backoff cleared")
		}
		e.prevRunning[i] = effRun[i]
	}
	if seg.Sleep {
		anyRunning := false
		for _, r := range effRun {
			if r {
				anyRunning = true
			}
		}
		if anyRunning {
			// Only reachable after a degraded suspend: PC6 entry would
			// legitimately fail while a task still runs, so stay awake
			// and let the watchdog see the draw.
			e.recordEvent("sleep-skip", "", "PC6 entry skipped: a degraded suspend left a task running")
		} else if err := e.writeSleep(); err != nil {
			return nil, err
		}
	}
	return effRun, nil
}

// segmentAt locates the segment containing period position pos.
func (e *Executor) segmentAt(pos float64) Segment {
	for i := range e.sched.Segments {
		if pos < e.bounds[i+1]-1e-12 {
			return e.sched.Segments[i]
		}
	}
	return e.sched.Segments[len(e.sched.Segments)-1]
}
