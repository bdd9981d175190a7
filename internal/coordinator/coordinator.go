// Package coordinator implements the paper's Coordinator: it refines the
// PowerAllocator's output into an executable schedule that keeps the
// server inside its power cap at every instant, coordinating application
// power draw in space (simultaneous throttling, R3a), in time (duty
// cycling, R3b), or in both by banking energy in an ESD while the sockets
// deep-sleep and over-drawing the cap from the battery while every
// application runs at once, amortizing the non-convex P_cm (R4).
//
// The Executor drives these schedules on the simulated platform every
// ~10 ms control interval, hardened against injected faults (bounded
// retries, the cap-breach watchdog — see internal/faults) and, when a
// telemetry.Hub is attached, fully instrumented: per-knob actuation
// latencies, watchdog and retry counters, and one interval span with
// per-tenant actuate slices on the trace timeline (docs/METRICS.md).
// Attaching telemetry never changes a run's outputs.
package coordinator

import (
	"fmt"
	"math"

	"powerstruggle/internal/allocator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

// Mode identifies which of the paper's coordination strategies a schedule
// uses.
type Mode int

// The coordination strategies of Section III-B.
const (
	// ModeSpace throttles all applications simultaneously (R3a); state
	// stays warm in private caches.
	ModeSpace Mode = iota
	// ModeTime multiplexes applications in time with alternate duty
	// cycling (R3b); suspended applications lose private-cache state.
	ModeTime
	// ModeESD alternates whole-server sleep (banking energy) with
	// simultaneous full-speed execution of every application, supplying
	// the excess over the cap from storage (R4).
	ModeESD
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSpace:
		return "space"
	case ModeTime:
		return "time"
	case ModeESD:
		return "esd"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SegKnob is one application's actuation inside a segment.
type SegKnob struct {
	Knobs workload.Knobs
	// Duty is the fraction of the segment the application actually
	// executes (RAPL idle-injection inside an otherwise steady
	// segment); 1 for normal running.
	Duty float64
}

// Segment is one interval of a schedule's period.
type Segment struct {
	// Seconds is the segment length.
	Seconds float64
	// Sleep drives the sockets into PC6 for the segment (all Run maps
	// must be empty).
	Sleep bool
	// Run maps application index to its actuation; absent applications
	// are suspended.
	Run map[int]SegKnob
	// ChargeW and DischargeW are the ESD rail powers during the
	// segment (at most one may be non-zero).
	ChargeW    float64
	DischargeW float64
	// Restore marks the applications that resume in this segment after
	// a suspension and must pay the cold-cache restore penalty.
	Restore map[int]bool
}

// Schedule is the Coordinator's executable output: a periodic timeline
// plus its predicted steady-state performance.
type Schedule struct {
	Mode     Mode
	PeriodS  float64
	Segments []Segment
	// AppPerf is the predicted per-application normalized performance
	// (time-averaged over the period, restore overheads included).
	AppPerf []float64
	// AppBudgetW is the time-averaged power apportioned to each
	// application.
	AppBudgetW []float64
	// TotalPerf is the paper's objective (1) under this schedule.
	TotalPerf float64
	// PeakGridW is the highest instantaneous grid draw of any segment;
	// adherence means PeakGridW <= the cap.
	PeakGridW float64
}

// String renders the schedule compactly: mode, period, and each
// segment's role.
func (s Schedule) String() string {
	out := fmt.Sprintf("%s period=%.2fs", s.Mode, s.PeriodS)
	for _, seg := range s.Segments {
		switch {
		case seg.Sleep:
			out += fmt.Sprintf(" [sleep %.2fs charge=%.1fW]", seg.Seconds, seg.ChargeW)
		case seg.DischargeW > 0:
			out += fmt.Sprintf(" [run(%d) %.2fs discharge=%.1fW]", len(seg.Run), seg.Seconds, seg.DischargeW)
		default:
			out += fmt.Sprintf(" [run(%d) %.2fs]", len(seg.Run), seg.Seconds)
		}
	}
	return out
}

// Config parameterizes the coordinator.
type Config struct {
	// HW is the platform.
	HW simhw.Config
	// CapW is the server power cap.
	CapW float64
	// RestoreSeconds is the dead time an application pays when resumed
	// after suspension (cold private caches / page restore); the
	// drawback of time coordination the paper calls out.
	RestoreSeconds float64
	// PeriodSeconds is the duty-cycle period for ModeTime; 0 means
	// DefaultPeriodS.
	PeriodSeconds float64
	// MinShare is the fairness floor of an application's time share in
	// utility-weighted duty cycling, as a fraction of the fair share.
	// 0 means DefaultMinShareFrac.
	MinShare float64
	// Faults, when non-nil with any rate enabled, wraps the platform,
	// heartbeat delivery, and ESD telemetry in the seed-driven fault
	// injector and arms the retry/watchdog machinery. nil (or an
	// all-zero config) leaves the fault-free fast path untouched — the
	// executor then drives the bare simulated server with no wrappers,
	// no random draws, and bit-identical numerical results.
	Faults *faults.Config
	// Watchdog forces the cap-breach watchdog on even without injected
	// faults (it arms automatically when Faults is enabled).
	Watchdog bool
	// WatchdogK is both the number of consecutive over-cap control
	// intervals tolerated before the emergency clamp engages and the
	// number of consecutive clean intervals required to release it;
	// 0 means DefaultWatchdogK.
	WatchdogK int
	// WatchdogRecoveryS is the ramp length over which released
	// applications regain their scheduled frequency after a clamp;
	// 0 means DefaultWatchdogRecoveryS.
	WatchdogRecoveryS float64
	// MaxRetries bounds the immediate same-step retries of a
	// transiently failed actuation; 0 means DefaultMaxRetries.
	MaxRetries int
	// Telemetry, when non-nil, instruments the executor: per-interval
	// control-loop spans, actuation latency/retry/watchdog metrics, and
	// injected-vs-observed fault counters all land in the hub. nil runs
	// the uninstrumented fast path — the numerical results are
	// bit-identical either way (telemetry only observes, never steers).
	Telemetry *telemetry.Hub
}

// Defaults for Config.
const (
	DefaultPeriodS      = 2.0
	DefaultRestoreS     = 0.06
	DefaultMinShareFrac = 0.5
	// DefaultWatchdogK tolerates this many consecutive over-cap
	// control intervals before the emergency clamp engages.
	DefaultWatchdogK = 5
	// DefaultWatchdogRecoveryS ramps released applications back to
	// their scheduled frequency over this long.
	DefaultWatchdogRecoveryS = 2.0
	// DefaultMaxRetries bounds immediate retries of a failed actuation.
	DefaultMaxRetries = 3
)

func (c Config) watchdogK() int {
	if c.WatchdogK > 0 {
		return c.WatchdogK
	}
	return DefaultWatchdogK
}

func (c Config) watchdogRecovery() float64 {
	if c.WatchdogRecoveryS > 0 {
		return c.WatchdogRecoveryS
	}
	return DefaultWatchdogRecoveryS
}

func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return DefaultMaxRetries
}

func (c Config) period() float64 {
	if c.PeriodSeconds > 0 {
		return c.PeriodSeconds
	}
	return DefaultPeriodS
}

func (c Config) minShareFrac() float64 {
	if c.MinShare > 0 {
		return c.MinShare
	}
	return DefaultMinShareFrac
}

// Space builds the R3a schedule: every funded application runs
// continuously at its allocated operating point; the cap is met by
// simultaneous throttling. An application whose share admits no
// operating point stays suspended (its plan already scores it zero).
// Fails only when nothing at all can run — the regime Time or ESD must
// handle.
func Space(cfg Config, plan allocator.Plan) (Schedule, error) {
	run := make(map[int]SegKnob, len(plan.Allocs))
	var (
		perf    []float64
		budgets []float64
		total   float64
		draw    float64
	)
	for i, a := range plan.Allocs {
		perf = append(perf, 0)
		budgets = append(budgets, a.BudgetW)
		if !a.Runnable {
			continue
		}
		duty := a.Point.DutyFrac
		if duty <= 0 || duty > 1 {
			duty = 1
		}
		run[i] = SegKnob{Knobs: a.Point.Knobs, Duty: duty}
		perf[i] = a.Point.Perf
		total += a.Point.Perf
		draw += a.Point.PowerW
	}
	if len(run) == 0 {
		return Schedule{}, fmt.Errorf("coordinator: no application has a runnable point; use time or ESD coordination")
	}
	seg := Segment{Seconds: cfg.period(), Run: run}
	peak := cfg.HW.PIdleWatts + cfg.HW.PCmWatts + draw
	return Schedule{
		Mode:       ModeSpace,
		PeriodS:    cfg.period(),
		Segments:   []Segment{seg},
		AppPerf:    perf,
		AppBudgetW: budgets,
		TotalPerf:  total,
		PeakGridW:  peak,
	}, nil
}

// Time builds the R3b schedule: applications take turns, each getting the
// entire dynamic budget while it is ON. fair gives every application an
// equal share of the period; otherwise shares start at the fairness
// floor and the remainder goes to the applications with the best
// performance per unit of time (the App+Res-Aware enforcement of unequal
// budgets). curves supply each application's ON operating point.
func Time(cfg Config, curves []*workload.Curve, fair bool) (Schedule, error) {
	n := len(curves)
	if n == 0 {
		return Schedule{}, fmt.Errorf("coordinator: no applications to schedule")
	}
	budget := cfg.HW.DynamicBudget(cfg.CapW)
	period := cfg.period()

	// Each application's best point with the whole budget to itself.
	on := make([]workload.Point, n)
	for i, c := range curves {
		pt, ok := c.At(budget)
		if !ok {
			return Schedule{}, fmt.Errorf("coordinator: application %d cannot run even alone under %.1f W", i, budget)
		}
		on[i] = pt
	}

	shares := make([]float64, n)
	if fair {
		for i := range shares {
			shares[i] = 1 / float64(n)
		}
	} else {
		// Fairness floor, then remainder to the highest-utility apps.
		floor := cfg.minShareFrac() / float64(n)
		rest := 1 - floor*float64(n)
		bestI, bestPerf := 0, -1.0
		for i := range shares {
			shares[i] = floor
			if on[i].Perf > bestPerf {
				bestI, bestPerf = i, on[i].Perf
			}
		}
		shares[bestI] += rest
	}

	sched := Schedule{
		Mode:       ModeTime,
		PeriodS:    period,
		AppPerf:    make([]float64, n),
		AppBudgetW: make([]float64, n),
	}
	var peak float64
	for i := 0; i < n; i++ {
		secs := shares[i] * period
		if secs <= 0 {
			continue
		}
		seg := Segment{
			Seconds: secs,
			Run:     map[int]SegKnob{i: {Knobs: on[i].Knobs, Duty: on[i].DutyFrac}},
			Restore: map[int]bool{i: true},
		}
		sched.Segments = append(sched.Segments, seg)
		eff := restoreEfficiency(secs, cfg.restore())
		sched.AppPerf[i] = shares[i] * on[i].Perf * eff
		sched.AppBudgetW[i] = shares[i] * on[i].PowerW
		sched.TotalPerf += sched.AppPerf[i]
		if p := cfg.HW.PIdleWatts + cfg.HW.PCmWatts + on[i].PowerW; p > peak {
			peak = p
		}
	}
	sched.PeakGridW = peak
	return sched, nil
}

func (c Config) restore() float64 {
	if c.RestoreSeconds > 0 {
		return c.RestoreSeconds
	}
	return DefaultRestoreS
}

// restoreEfficiency is the fraction of an ON interval left after paying
// the cold-cache restore penalty at its start.
func restoreEfficiency(onSeconds, restoreSeconds float64) float64 {
	if onSeconds <= 0 {
		return 0
	}
	eff := 1 - restoreSeconds/onSeconds
	if eff < 0 {
		return 0
	}
	return eff
}

// ESD builds the R4 schedule: during the OFF phase every application is
// suspended, the sockets deep-sleep, and the cap-to-idle headroom charges
// the battery; during the ON phase all applications run simultaneously —
// paying P_cm once — with the excess over the cap discharged from the
// battery. The OFF:ON ratio follows the paper's equation (5); the total
// ON-phase dynamic power is chosen by searching a grid of budgets and
// apportioning each with the allocator.
func ESD(cfg Config, curves []*workload.Curve, dev *esd.Device) (Schedule, error) {
	n := len(curves)
	if n == 0 {
		return Schedule{}, fmt.Errorf("coordinator: no applications to schedule")
	}
	if dev == nil {
		return Schedule{}, fmt.Errorf("coordinator: ESD coordination needs a device")
	}
	spec := dev.Spec()
	chargeW := math.Min(cfg.HW.ChargeHeadroom(cfg.CapW), spec.MaxChargeW)
	if chargeW <= 0 {
		return Schedule{}, fmt.Errorf("coordinator: cap %.1f W leaves no charging headroom over P_idle %.1f W", cfg.CapW, cfg.HW.PIdleWatts)
	}
	eta := spec.RoundTripEff()

	// Search ON-phase dynamic budgets from just over the cap-feasible
	// level up to everything the applications can use.
	maxL := 0.0
	for _, c := range curves {
		maxL += c.MaxPower()
	}
	bestObj := -1.0
	var bestPlan allocator.Plan
	var bestOnFrac, bestDischarge float64
	for L := cfg.HW.DynamicBudget(cfg.CapW) + 1; L <= maxL+1e-9; L += 1 {
		plan, err := allocator.Apportion(curves, L, 0)
		if err != nil {
			return Schedule{}, err
		}
		discharge := cfg.HW.PIdleWatts + cfg.HW.PCmWatts + plan.SpentW - cfg.CapW
		if discharge <= 0 {
			continue // space coordination would cover this; not ESD's regime
		}
		if discharge > spec.MaxDischargeW {
			continue
		}
		// Equation (5): OFF/ON = (P_idle + P_cm + sum P_X - P_cap) /
		// (eta * (P_cap - P_idle)), with the charge power additionally
		// bounded by the device.
		offOn := discharge / (eta * chargeW)
		onFrac := 1 / (1 + offOn)
		obj := onFrac * plan.TotalPerf
		if obj > bestObj {
			bestObj, bestPlan, bestOnFrac, bestDischarge = obj, plan, onFrac, discharge
		}
	}
	if bestObj < 0 {
		return Schedule{}, fmt.Errorf("coordinator: no feasible ESD operating point under cap %.1f W", cfg.CapW)
	}

	// Pick a period whose ON-phase store swing stays within half the
	// usable window, clamped to sane bounds.
	period := cfg.period()
	if drain := bestDischarge / spec.DischargeEff; drain > 0 {
		maxOn := 0.5 * spec.UsableJ() / drain
		if maxPeriod := maxOn / bestOnFrac; maxPeriod < period {
			period = maxPeriod
		}
	}
	if period < 0.5 {
		period = 0.5
	}

	onS := bestOnFrac * period
	offS := period - onS
	run := make(map[int]SegKnob, n)
	restore := make(map[int]bool, n)
	sched := Schedule{
		Mode:       ModeESD,
		PeriodS:    period,
		AppPerf:    make([]float64, n),
		AppBudgetW: make([]float64, n),
	}
	eff := restoreEfficiency(onS, cfg.restore())
	for i, a := range bestPlan.Allocs {
		if !a.Runnable {
			continue
		}
		run[i] = SegKnob{Knobs: a.Point.Knobs, Duty: a.Point.DutyFrac}
		restore[i] = true
		sched.AppPerf[i] = bestOnFrac * a.Point.Perf * eff
		sched.AppBudgetW[i] = bestOnFrac * a.Point.PowerW
		sched.TotalPerf += sched.AppPerf[i]
	}
	sched.Segments = []Segment{
		{Seconds: offS, Sleep: true, ChargeW: chargeW},
		{Seconds: onS, Run: run, DischargeW: bestDischarge, Restore: restore},
	}
	sched.PeakGridW = cfg.CapW // discharge tops the draw up to exactly the cap
	return sched, nil
}

// AlternateESD builds the Fig. 5a strawman: ESD-assisted duty cycling
// where applications still take turns (paying P_cm during every ON slice
// without amortizing it across applications). It exists to quantify the
// ~30% advantage of the consolidated ON phase (Fig. 5b, which ESD
// implements).
func AlternateESD(cfg Config, curves []*workload.Curve, dev *esd.Device) (Schedule, error) {
	n := len(curves)
	if n == 0 {
		return Schedule{}, fmt.Errorf("coordinator: no applications to schedule")
	}
	if dev == nil {
		return Schedule{}, fmt.Errorf("coordinator: ESD coordination needs a device")
	}
	spec := dev.Spec()
	chargeW := math.Min(cfg.HW.ChargeHeadroom(cfg.CapW), spec.MaxChargeW)
	if chargeW <= 0 {
		return Schedule{}, fmt.Errorf("coordinator: cap %.1f W leaves no charging headroom", cfg.CapW)
	}
	eta := spec.RoundTripEff()

	// Each application runs alone at its best point; the battery covers
	// its individual excess over the cap.
	type alt struct {
		pt        workload.Point
		discharge float64
	}
	alts := make([]alt, n)
	var sumOnWeight float64
	for i, c := range curves {
		pt, ok := c.At(c.MaxPower())
		if !ok {
			return Schedule{}, fmt.Errorf("coordinator: application %d has an empty curve", i)
		}
		d := cfg.HW.PIdleWatts + cfg.HW.PCmWatts + pt.PowerW - cfg.CapW
		if d < 0 {
			d = 0
		}
		if d > spec.MaxDischargeW {
			return Schedule{}, fmt.Errorf("coordinator: application %d needs %.1f W of discharge, device allows %.1f", i, d, spec.MaxDischargeW)
		}
		alts[i] = alt{pt: pt, discharge: d}
		sumOnWeight += d / (eta * chargeW)
	}
	// One shared OFF phase banks energy for all ON slices (equal ON
	// lengths); energy balance gives OFF/ON_total.
	offOn := sumOnWeight / float64(n)
	onFrac := 1 / (1 + offOn)

	period := cfg.period()
	onTotal := onFrac * period
	onEach := onTotal / float64(n)
	offS := period - onTotal

	sched := Schedule{
		Mode:       ModeESD,
		PeriodS:    period,
		AppPerf:    make([]float64, n),
		AppBudgetW: make([]float64, n),
	}
	sched.Segments = append(sched.Segments, Segment{Seconds: offS, Sleep: true, ChargeW: chargeW})
	eff := restoreEfficiency(onEach, cfg.restore())
	peak := 0.0
	for i, a := range alts {
		sched.Segments = append(sched.Segments, Segment{
			Seconds:    onEach,
			Run:        map[int]SegKnob{i: {Knobs: a.pt.Knobs, Duty: a.pt.DutyFrac}},
			DischargeW: a.discharge,
			Restore:    map[int]bool{i: true},
		})
		share := onEach / period
		sched.AppPerf[i] = share * a.pt.Perf * eff
		sched.AppBudgetW[i] = share * a.pt.PowerW
		sched.TotalPerf += sched.AppPerf[i]
		if p := cfg.HW.PIdleWatts + cfg.HW.PCmWatts + a.pt.PowerW - a.discharge; p > peak {
			peak = p
		}
	}
	sched.PeakGridW = peak
	return sched, nil
}
