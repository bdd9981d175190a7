package daemon

import (
	"fmt"
	"time"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
)

// CtrlConfig joins the daemon to a cluster control plane. A joined
// daemon is a ctrlplane.Agent whose backend is the live simulation and
// whose clock is the wall clock: the agent answers assign, report and
// lease frames (CtrlEndpoint), orders grants by (epoch, seq), and
// fences the cap when a granted draw lease lapses without renewal —
// the same state machine, line for line, as a trace-replay agent.
//
// A live daemon's mix churns as jobs arrive and finish, so it cannot
// pre-characterize cap → utility the way the replay evaluator can; by
// default it reports no utility curve and the coordinator apportions
// evenly for curveless members. With Learn set it characterizes the
// running mix online instead, reporting the learned curve with
// confidence meta — the coordinator still treats it as curveless until
// the confidence clears its floor.
type CtrlConfig struct {
	// ServerID is the daemon's fleet index; assigns addressed to any
	// other ID are rejected.
	ServerID int
	// FenceCapW is the cap the daemon boots at and clamps itself to when
	// its draw lease lapses (default: the platform idle floor — a
	// powered-on server cannot draw less without host power-off, which
	// the simulated platform does not model).
	FenceCapW float64
	// SafeMode, when enabled (DecayWPerS > 0), replaces the fence cliff
	// with graceful leaderless degradation: hold the cap in force at
	// lease lapse, then decay it toward FloorW (default: the fence cap).
	SafeMode ctrlplane.SafeModeConfig
	// Clock is the daemon's wall-clock source (default time.Now) —
	// injectable so mixed trace+wall drills run deterministically.
	Clock func() time.Time
	// Learn, when non-nil, turns on online utility learning: the daemon
	// self-caps to probe unsampled cap levels (never above its grant),
	// learns cap → heartbeat-rate from the samples the control loop
	// produces anyway, and reports the learned curve with
	// CurveConf/CurveCells meta. FloorW and NameplateW default to the
	// platform idle floor and nameplate.
	Learn *cf.OnlineConfig
	// LearnRateHz overrides the learning observable (default: the summed
	// heartbeat rate of hosted apps in the latest accountant sample). The
	// callback runs with the daemon's simulation lock held — it must not
	// call back into daemon methods.
	LearnRateHz func() float64
}

// EnableCtrl puts the daemon behind a control-plane agent. Call before
// Handler. Like every fleet member the daemon boots fenced, at
// FenceCapW, and only a grant lifts it — a daemon joining a capped
// fleet draws nothing the coordinator has not apportioned.
func (d *Daemon) EnableCtrl(cfg CtrlConfig) error {
	fence := cfg.FenceCapW
	if fence <= 0 {
		fence = d.hw.PIdleWatts
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	base := clock()
	a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{
		ID:        cfg.ServerID,
		Backend:   &simBackend{d: d, rateHz: cfg.LearnRateHz},
		FenceCapW: fence,
		SafeMode:  cfg.SafeMode,
		Learn:     cfg.Learn,
		Version:   d.version,
		// Seconds since boot, not since 1970: lease arithmetic subtracts
		// readings an interval apart, and small magnitudes keep that exact.
		Clock: func() float64 { return clock().Sub(base).Seconds() },
	})
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	d.ctrl = a
	return nil
}

// simBackend is the live simulation as a ctrlplane.Backend. The agent
// calls it holding its own lock, and it takes d.mu — so daemon code
// never calls into the agent while holding d.mu.
type simBackend struct {
	d      *Daemon
	rateHz func() float64
}

// Apply schedules capW as a cap-change event at the current sim time
// unless it is already in force or already scheduled, and returns the
// learning observable and the latest grid draw. The observable is only
// meaningful for the cap it was measured under: while capW is still
// pending (the simulation has not stepped past the event) the returned
// performance is 0, which the online estimator drops as a sample.
func (b *simBackend) Apply(capW float64) (perfN, gridW float64, err error) {
	d := b.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.upcomingCapLocked() != capW {
		if err := d.scheduleCapLocked(capW); err != nil {
			return 0, 0, err
		}
	}
	last := d.sim.LastSample()
	if d.pendingCapW != 0 {
		return 0, last.GridW, nil
	}
	if b.rateHz != nil {
		return b.rateHz(), last.GridW, nil
	}
	var rate float64
	for _, a := range last.Apps {
		rate += a.RateHz
	}
	return rate, last.GridW, nil
}

func (b *simBackend) SoC() float64 {
	b.d.mu.Lock()
	defer b.d.mu.Unlock()
	return b.d.sim.LastSample().SoC
}

func (b *simBackend) IdleFloorW() float64 { return b.d.hw.PIdleWatts }
func (b *simBackend) NameplateW() float64 { return b.d.hw.MaxServerWatts() }

// UtilityCurve reports none: a live mix is not pre-characterizable.
func (b *simBackend) UtilityCurve() ([]cluster.CapPoint, error) { return nil, nil }

// ctrlTick is the control-plane half of Advance: refresh the agent's
// view of the draw under its enforced cap, then tick its lease, decay
// and learning on the wall clock. Runs after the sim step, outside
// d.mu.
func (d *Daemon) ctrlTick() error {
	if d.ctrl == nil {
		return nil
	}
	if err := d.ctrl.Refresh(); err != nil {
		return err
	}
	// The argument is unused: the agent reads its own clock.
	return d.ctrl.Tick(0)
}

// CtrlEndpoint returns the daemon's agent — the surface psd hosts on a
// BinaryServer (-ctrl-binary-listen) — or an error if EnableCtrl has
// not run.
func (d *Daemon) CtrlEndpoint() (ctrlplane.CtrlEndpoint, error) {
	if d.ctrl == nil {
		return nil, fmt.Errorf("daemon: control plane not enabled")
	}
	return d.ctrl, nil
}
