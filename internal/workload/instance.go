package workload

import (
	"fmt"

	"powerstruggle/internal/simhw"
)

// Instance is one running copy of an application in a time-stepped
// simulation: it tracks busy time (for phase selection), delivered
// heartbeats, and optionally a finite amount of work after which the
// application departs (the paper's event E3).
//
// An Instance holds its operating point — the phase-resolved profile and
// the rate and DRAM draw at the knobs last asked about — so a simulation
// that steps a fixed (phase, knobs) pair evaluates the model once, not on
// every step. The Profile must not be mutated while the instance runs.
type Instance struct {
	// Profile is the application model. Phase-bearing profiles are
	// resolved per step by Effective.
	Profile *Profile
	// TotalBeats is the finite work of the instance in heartbeats; 0
	// means the instance runs forever.
	TotalBeats float64

	busySeconds float64
	beats       float64
	done        bool

	// phases[i] is Profile's steady copy during phase i, built the first
	// time the instance enters that phase; phasesOf is the Profile they
	// were built from.
	phasesOf *Profile
	phases   []*Profile
	op       operatingPoint
}

// operatingPoint memoizes one profile's Rate and MemDrawWatts at one
// (platform, knobs) key. Each result is filled on first use by calling
// the profile's own method, so a hit returns exactly what the call would.
type operatingPoint struct {
	prof     *Profile
	cfg      simhw.Config
	k        Knobs
	rate     float64
	draw     float64
	haveRate bool
	haveDraw bool
}

// NewInstance starts an instance of profile with totalBeats of work (0
// for endless).
func NewInstance(p *Profile, totalBeats float64) (*Instance, error) {
	if p == nil {
		return nil, fmt.Errorf("workload: instance needs a profile")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if totalBeats < 0 {
		return nil, fmt.Errorf("workload: %s: negative work %g", p.Name, totalBeats)
	}
	return &Instance{Profile: p, TotalBeats: totalBeats}, nil
}

// Effective returns the phase-resolved profile in force right now. It
// equals Profile.PhaseAt(BusySeconds()) in value, and within one phase it
// is the same pointer every call.
func (in *Instance) Effective() *Profile {
	p := in.Profile
	i := p.phaseIndex(in.busySeconds)
	if i < 0 {
		return p
	}
	if in.phasesOf != p {
		in.phasesOf = p
		in.phases = make([]*Profile, len(p.Phases))
	}
	if in.phases[i] == nil {
		in.phases[i] = p.phaseProfile(i)
	}
	return in.phases[i]
}

// point returns the operating-point memo for (Effective(), cfg, k),
// resetting it when any part of the key changed.
func (in *Instance) point(cfg *simhw.Config, k Knobs) *operatingPoint {
	eff := in.Effective()
	op := &in.op
	if op.prof != eff || op.k != k || op.cfg != *cfg {
		*op = operatingPoint{prof: eff, cfg: *cfg, k: k}
	}
	return op
}

// Rate returns Effective().Rate(cfg, k), evaluating the model only when
// the phase, the platform or the knobs changed since the last call.
func (in *Instance) Rate(cfg simhw.Config, k Knobs) float64 {
	op := in.point(&cfg, k)
	if !op.haveRate {
		op.rate, op.haveRate = op.prof.Rate(cfg, k), true
	}
	return op.rate
}

// MemDrawWatts returns Effective().MemDrawWatts(cfg, k), memoized like
// Rate.
func (in *Instance) MemDrawWatts(cfg simhw.Config, k Knobs) float64 {
	op := in.point(&cfg, k)
	if !op.haveDraw {
		op.draw, op.haveDraw = op.prof.MemDrawWatts(cfg, k), true
	}
	return op.draw
}

// Advance runs the instance for dt seconds at knob setting k on cfg
// (running=false models a suspended task: time passes, no progress, no
// busy time). It returns the heartbeats delivered during the step.
func (in *Instance) Advance(cfg simhw.Config, k Knobs, running bool, dt float64) float64 {
	if dt <= 0 || in.done || !running {
		return 0
	}
	delivered := in.Rate(cfg, k) * dt
	if in.TotalBeats > 0 && in.beats+delivered >= in.TotalBeats {
		delivered = in.TotalBeats - in.beats
		in.done = true
	}
	in.beats += delivered
	in.busySeconds += dt
	return delivered
}

// Beats returns the heartbeats delivered so far.
func (in *Instance) Beats() float64 { return in.beats }

// BusySeconds returns accumulated running (non-suspended) time.
func (in *Instance) BusySeconds() float64 { return in.busySeconds }

// Done reports whether a finite instance has completed its work.
func (in *Instance) Done() bool { return in.done }

// Remaining returns the heartbeats left for a finite instance, or -1 for
// an endless one.
func (in *Instance) Remaining() float64 {
	if in.TotalBeats == 0 {
		return -1
	}
	r := in.TotalBeats - in.beats
	if r < 0 {
		return 0
	}
	return r
}
