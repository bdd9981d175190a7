package coordinator

import (
	"errors"
	"fmt"
	"math"
	"time"

	"powerstruggle/internal/faults"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

// Backoff bounds for a flapping actuator, in simulated seconds.
const (
	minBackoffS = 0.05
	maxBackoffS = 1.6
	// emergencyRetries is the per-write retry budget of the watchdog's
	// clamp: emergency writes bypass backoff entirely, because leaving a
	// breaching server alone is worse than hammering its actuators.
	emergencyRetries = 16
)

// watchdog is the cap-breach watchdog's state. It observes the grid draw
// after every control interval; when the draw exceeds the cap for K
// consecutive intervals the clamp engages, forcing either the emergency
// knob floor (min frequency, min DRAM limit) or — when even the floor
// cannot fit under the cap — a full suspend. K consecutive clean
// intervals release it, after which frequencies ramp back linearly.
type watchdog struct {
	enabled bool
	engaged bool
	// suspend selects the clamp tier: false forces the knob floor,
	// true suspends every application (draw falls to P_idle).
	suspend bool

	breachRun    int
	cleanRun     int
	engages      int
	breachSteps  int
	maxBreachRun int

	// recoverAt is the simulated time the last release happened; -1
	// when no recovery ramp is in progress.
	recoverAt float64
}

// recordEvent appends a structured event to the fault log, if any, and
// mirrors it into telemetry: an observed-fault counter bump plus an
// instant event on the control track, so a Perfetto trace lines up
// degraded-mode transitions with the intervals they happened in.
func (e *Executor) recordEvent(kind, target, detail string) {
	if e.tel.enabled {
		e.tel.observed.With(kind).Inc()
		e.tel.tracer.Instant(kind, telemetry.CatFault, telemetry.TidControl, e.now,
			telemetry.A("target", target), telemetry.A("detail", detail))
	}
	if e.flog == nil {
		return
	}
	e.flog.Append(faults.Event{T: e.now, Kind: kind, Target: target, Detail: detail})
}

// FaultLog exposes the executor's structured fault/recovery event log
// (nil when neither faults nor the watchdog are enabled).
func (e *Executor) FaultLog() *faults.Log { return e.flog }

// FaultEvents returns the logged fault and recovery events in order.
func (e *Executor) FaultEvents() []faults.Event {
	if e.flog == nil {
		return nil
	}
	return e.flog.Events()
}

// WatchdogEngaged reports whether the emergency clamp is currently
// holding the server down.
func (e *Executor) WatchdogEngaged() bool { return e.wd.engaged }

// WatchdogEngages counts clamp engagements so far.
func (e *Executor) WatchdogEngages() int { return e.wd.engages }

// CapBreachSteps counts control intervals whose grid draw exceeded the
// cap.
func (e *Executor) CapBreachSteps() int { return e.wd.breachSteps }

// MaxBreachRun is the longest run of consecutive over-cap control
// intervals observed — the quantity the watchdog exists to bound.
func (e *Executor) MaxBreachRun() int { return e.wd.maxBreachRun }

// retry performs op with bounded immediate retries on transient
// failures. On exhaustion the application enters exponential backoff and
// the transient error is returned; non-transient errors return at once.
// A dropout is not retried — the whole window is dead, retries only spin.
func (e *Executor) retry(i int, op func() error) error {
	var err error
	for attempt := 0; attempt <= e.cfg.maxRetries(); attempt++ {
		err = op()
		if err == nil || !faults.IsTransient(err) {
			return err
		}
		e.tel.retries.Inc()
		if errors.Is(err, faults.ErrDropout) {
			break
		}
	}
	e.noteDegraded(i, err)
	return err
}

// noteDegraded moves application i into (or deeper into) backoff after
// its retry budget ran out.
func (e *Executor) noteDegraded(i int, err error) {
	if e.backoffS[i] <= 0 {
		e.backoffS[i] = minBackoffS
	} else {
		e.backoffS[i] = math.Min(e.backoffS[i]*2, maxBackoffS)
	}
	e.retryAt[i] = e.now + e.backoffS[i]
	e.tel.backoffs.Inc()
	e.recordEvent("actuation-degraded", e.hbName(i),
		fmt.Sprintf("retries exhausted (%v); backing off %.2f s", err, e.backoffS[i]))
}

// writeKnobs applies knobs and load for application i with retries.
// Transient exhaustion leaves the slot on stale knobs and returns the
// transient error; the caller degrades rather than aborts.
func (e *Executor) writeKnobs(i int, k workload.Knobs) error {
	if e.tel.enabled {
		defer e.tel.observeLatency(e.tel.latKnob, time.Now())
	}
	if err := e.retry(i, func() error {
		return e.srv.SetKnobs(e.slots[i], k.FreqGHz, k.Cores, k.MemWatts)
	}); err != nil {
		return err
	}
	// Load reporting is the occupant's own telemetry, not an actuation;
	// it does not fault and a failure here is a real error.
	return e.setLoad(i, k)
}

// setLoad reports application i's occupant load at knobs k: the
// effective profile's activity factor and the instance's memoized DRAM
// draw.
func (e *Executor) setLoad(i int, k workload.Knobs) error {
	in := e.instances[i]
	return e.srv.SetLoad(e.slots[i], in.Effective().CPUActivity, in.MemDrawWatts(e.cfg.HW, k))
}

// writeRunning starts or suspends application i with retries. It reports
// whether the write took effect; transient exhaustion degrades (false,
// nil) so the caller holds the previous state, real errors propagate.
func (e *Executor) writeRunning(i int, running bool) (bool, error) {
	if e.tel.enabled {
		defer e.tel.observeLatency(e.tel.latRun, time.Now())
	}
	err := e.retry(i, func() error { return e.srv.SetRunning(e.slots[i], running) })
	if err == nil {
		return true, nil
	}
	if faults.IsTransient(err) {
		return false, nil
	}
	return false, err
}

// writeSleep drives the sockets into PC6 with bounded retries. A
// transiently failed sleep is survivable — the server just idles awake
// for the step — so transient exhaustion degrades silently.
func (e *Executor) writeSleep() error {
	if e.tel.enabled {
		defer e.tel.observeLatency(e.tel.latSleep, time.Now())
	}
	var err error
	for attempt := 0; attempt <= e.cfg.maxRetries(); attempt++ {
		err = e.srv.Sleep()
		if err == nil || !faults.IsTransient(err) {
			return err
		}
		if errors.Is(err, faults.ErrDropout) {
			break
		}
	}
	e.recordEvent("sleep-degraded", "", fmt.Sprintf("PC6 entry failed (%v); idling awake", err))
	return nil
}

// watchdogPrepare runs at the start of every control interval: it
// finishes an expired recovery ramp, releases an engaged clamp after K
// clean intervals, and engages the clamp once the breach run reaches K.
func (e *Executor) watchdogPrepare() {
	k := e.cfg.watchdogK()
	if e.wd.recoverAt >= 0 && e.now-e.wd.recoverAt >= e.cfg.watchdogRecovery() {
		// The settle span covers the whole recovery ramp: release to
		// full scheduled frequency.
		e.tel.tracer.Span("settle", telemetry.CatSettle, telemetry.TidControl,
			e.wd.recoverAt, e.now-e.wd.recoverAt)
		e.wd.recoverAt = -1
		e.recordEvent("watchdog-recovered", "", "recovery ramp complete; scheduled knobs restored")
	}
	if e.wd.engaged && e.wd.cleanRun >= k {
		e.wd.engaged = false
		e.wd.suspend = false
		e.wd.recoverAt = e.now
		e.tel.wdReleases.Inc()
		e.recordEvent("watchdog-release", "",
			fmt.Sprintf("%d clean intervals; ramping back over %.1f s", k, e.cfg.watchdogRecovery()))
	}
	if !e.wd.engaged && e.wd.breachRun >= k {
		e.engageWatchdog()
	}
}

// engageWatchdog turns the clamp on, choosing the tier by whether the
// knob floor itself fits under the cap.
func (e *Executor) engageWatchdog() {
	e.wd.engaged = true
	e.wd.engages++
	e.tel.wdEngages.Inc()
	e.wd.cleanRun = 0
	e.wd.recoverAt = -1
	floor := e.clampFloorWatts()
	e.wd.suspend = floor > e.cfg.CapW
	tier := fmt.Sprintf("clamping to knob floor (~%.1f W)", floor)
	if e.wd.suspend {
		tier = fmt.Sprintf("knob floor ~%.1f W still over cap; suspending all applications", floor)
	}
	e.recordEvent("watchdog-engage", "",
		fmt.Sprintf("%d consecutive intervals over %.1f W cap; %s", e.wd.breachRun, e.cfg.CapW, tier))
}

// clampFloorWatts estimates the worst-case server draw with every
// application forced to the emergency knob floor — the engage-time
// decision between the floor tier and the suspend tier.
func (e *Executor) clampFloorWatts() float64 {
	hw := e.cfg.HW
	w := hw.PIdleWatts
	if len(e.profiles) > 0 {
		w += hw.PCmWatts
	}
	for i := range e.profiles {
		eff := e.instances[i].Effective()
		w += float64(eff.MaxCores)*hw.CoreWatts(hw.FreqMinGHz, eff.CPUActivity) + hw.MemMinWatts
	}
	return w
}

// watchdogObserve accounts one control interval's grid draw against the
// cap.
func (e *Executor) watchdogObserve(gridW float64) {
	if gridW > e.cfg.CapW+capSlack {
		e.wd.breachRun++
		e.wd.breachSteps++
		e.wd.cleanRun = 0
		if e.wd.breachRun > e.wd.maxBreachRun {
			e.wd.maxBreachRun = e.wd.breachRun
		}
		return
	}
	e.wd.breachRun = 0
	e.wd.cleanRun++
}

// clampSegment is the engaged watchdog's replacement for the segment's
// actuation: scheduled applications run at the knob floor (or everything
// suspends, on the suspend tier), written through verified emergency
// writes that bypass backoff.
func (e *Executor) clampSegment(seg Segment, cur []stepApp) ([]bool, error) {
	n := len(e.profiles)
	effRun := e.effRun
	for i := 0; i < n; i++ {
		run := cur[i].scheduled && !e.wd.suspend && !seg.Sleep
		if run {
			if err := e.forceKnobs(i, cur[i].k); err != nil {
				return nil, err
			}
		}
		if e.forceRun(i, run) {
			effRun[i] = run
		} else {
			effRun[i] = e.prevRunning[i]
		}
		e.prevRunning[i] = effRun[i]
	}
	// No PC6 and no scheduled ESD activity while clamped: the emergency
	// state is deliberately the simplest one that sheds power.
	return effRun, nil
}

// forceKnobs is the emergency knob write: bounded hard retries with a
// read-back verification, because an injected stuck-DVFS or delayed
// DRAM-limit write reports success while leaving the old setting live.
// Persistent failure is recorded and survived — the clamp stays engaged
// and tries again next interval.
func (e *Executor) forceKnobs(i int, k workload.Knobs) error {
	var lastErr error
	for attempt := 0; attempt < emergencyRetries; attempt++ {
		e.tel.emergencyWrites.Inc()
		if err := e.srv.SetKnobs(e.slots[i], k.FreqGHz, k.Cores, k.MemWatts); err != nil {
			if !faults.IsTransient(err) {
				return err
			}
			lastErr = err
			if errors.Is(err, faults.ErrDropout) {
				break
			}
			continue
		}
		st, err := e.srv.Slot(e.slots[i])
		if err != nil {
			return err
		}
		if st.FreqGHz == k.FreqGHz && st.MemWatts == k.MemWatts {
			return e.setLoad(i, k)
		}
		lastErr = fmt.Errorf("write reported success but read back f=%.2f m=%.1f", st.FreqGHz, st.MemWatts)
	}
	e.recordEvent("clamp-write-failed", e.hbName(i),
		fmt.Sprintf("emergency knob write not verified after %d attempts (%v)", emergencyRetries, lastErr))
	return nil
}

// forceRun is the emergency run/suspend write: bounded hard retries with
// read-back verification, reporting whether the state took effect.
func (e *Executor) forceRun(i int, running bool) bool {
	for attempt := 0; attempt < emergencyRetries; attempt++ {
		e.tel.emergencyWrites.Inc()
		if err := e.srv.SetRunning(e.slots[i], running); err != nil {
			if errors.Is(err, faults.ErrDropout) {
				break
			}
			continue
		}
		st, err := e.srv.Slot(e.slots[i])
		if err == nil && st.Running == running {
			return true
		}
	}
	what := "suspend"
	if running {
		what = "resume"
	}
	e.recordEvent("clamp-write-failed", e.hbName(i),
		fmt.Sprintf("emergency %s not verified after %d attempts", what, emergencyRetries))
	return false
}
