// Package faults is a deterministic, seed-driven fault injector for the
// mediated server: it wraps the simulated platform, the heartbeat
// monitor, and the energy storage device behind thin shims that fail,
// stick, delay, or go silent with configured probabilities. The runtime's
// premise — every knob write lands, every sensor read is fresh — is
// exactly what real powercap stacks cannot assume, so the injector is the
// standing soak harness for the hardened mediation loop: bounded retries,
// the cap-breach watchdog, fair-share degradation on telemetry loss, and
// cluster re-apportioning on server dropouts all exist to survive what
// this package throws at them.
//
// Determinism: all randomness comes from one seeded stream consumed in a
// defined order, so a run is bit-reproducible under a fixed seed. A
// probability of zero never draws from the stream, and a Config with
// every fault disabled makes consumers skip the wrappers entirely — the
// fault-free path pays nothing and stays bit-identical to the unwrapped
// runtime.
//
// Observability: SetObserver mirrors every injected event into the
// caller's metrics (the executor wires it to ps_faults_injected_total),
// so injected-vs-observed fault gaps are queryable without reading the
// log (docs/METRICS.md).
package faults

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrTransient marks an injected actuation failure that a retry may
// clear — the analogue of an EAGAIN from a powercap sysfs write or a
// dropped IPMI command.
var ErrTransient = errors.New("faults: transient actuation failure")

// ErrDropout marks an actuation refused because the whole server is in
// an injected dropout window (crashed, rebooting, or unreachable).
// Retries within the window do not help; consumers degrade instead.
var ErrDropout = errors.New("faults: server dropped out")

// IsTransient reports whether err is an injected fault that consumers
// should absorb with retries or graceful degradation, as opposed to a
// programmer error that must stay fatal.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrDropout)
}

// Config sets the injected fault rates. The zero value injects nothing.
type Config struct {
	// Seed drives the injector's random stream; runs with equal seeds
	// and rates are bit-identical.
	Seed int64
	// KnobWriteFailP is the probability that one actuation write — a
	// DVFS/core/DRAM knob write, a run/suspend command, or a sleep
	// command — fails transiently.
	KnobWriteFailP float64
	// StuckDVFSP is the probability that a knob write silently leaves
	// the frequency at its previous value (a stuck P-state transition);
	// the write reports success, so only telemetry reveals it.
	StuckDVFSP float64
	// MemDelayP is the probability that a knob write applies the
	// previous DRAM limit instead of the new one (RAPL limit latency).
	MemDelayP float64
	// BeatDropP is the probability that one heartbeat batch is lost in
	// delivery.
	BeatDropP float64
	// SoCMisreadP is the probability that a battery state-of-charge
	// read returns zero (a stuck fuel-gauge sensor).
	SoCMisreadP float64
	// DropoutAtS and DropoutForS define a whole-server dropout window
	// [DropoutAtS, DropoutAtS+DropoutForS) in simulated seconds during
	// which every actuation fails with ErrDropout. DropoutForS <= 0
	// disables the window.
	DropoutAtS  float64
	DropoutForS float64
	// MaxLogEvents bounds the injector's event log (0 means
	// DefaultMaxEvents).
	MaxLogEvents int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"KnobWriteFailP", c.KnobWriteFailP},
		{"StuckDVFSP", c.StuckDVFSP},
		{"MemDelayP", c.MemDelayP},
		{"BeatDropP", c.BeatDropP},
		{"SoCMisreadP", c.SoCMisreadP},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %g outside [0, 1]", p.name, p.v)
		}
	}
	if c.DropoutForS < 0 {
		return fmt.Errorf("faults: DropoutForS = %g is negative", c.DropoutForS)
	}
	if c.DropoutForS > 0 && c.DropoutAtS < 0 {
		return fmt.Errorf("faults: DropoutAtS = %g is negative", c.DropoutAtS)
	}
	return nil
}

// Enabled reports whether any fault can fire. Consumers skip the
// wrappers entirely when false, keeping the fault-free path identical to
// the unwrapped runtime.
func (c Config) Enabled() bool {
	return c.KnobWriteFailP > 0 || c.StuckDVFSP > 0 || c.MemDelayP > 0 ||
		c.BeatDropP > 0 || c.SoCMisreadP > 0 || c.DropoutForS > 0
}

// Injector is the shared fault source behind the wrappers: one random
// stream, one event log.
type Injector struct {
	cfg Config
	rng *rand.Rand
	log *Log
	obs func(kind string)
}

// NewInjector builds an injector from cfg.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		log: NewLog(cfg.MaxLogEvents),
	}, nil
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Log returns the injector's event log; recovery code appends its own
// actions here so faults and responses interleave in one timeline.
func (in *Injector) Log() *Log { return in.log }

// hit draws one Bernoulli sample at probability p. A probability of zero
// (or less) returns false without consuming the stream, so disabled
// faults cannot perturb the sequence of enabled ones.
func (in *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

// SetObserver installs a callback fired once per injected fault with the
// event kind — the hook the telemetry layer uses to count injected (as
// opposed to observed) faults. The callback runs on the injection path,
// so it must be cheap and must not call back into the injector.
func (in *Injector) SetObserver(fn func(kind string)) { in.obs = fn }

// record appends a fault event at simulated time t.
func (in *Injector) record(t float64, kind, target, detail string) {
	if in.obs != nil {
		in.obs(kind)
	}
	in.log.Append(Event{T: t, Kind: kind, Target: target, Detail: detail})
}

// droppedOut reports whether simulated time t falls in the configured
// whole-server dropout window.
func (in *Injector) droppedOut(t float64) bool {
	return in.cfg.DropoutForS > 0 &&
		t >= in.cfg.DropoutAtS && t < in.cfg.DropoutAtS+in.cfg.DropoutForS
}
