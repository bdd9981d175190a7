// Package simhw models the server hardware substrate the paper's runtime
// manages: a dual-socket machine with per-core DVFS, core power gating,
// socket deep-sleep (PC6), per-channel DRAM power limiting, and the
// three-component power decomposition the paper builds its arithmetic on —
// a constant idle floor P_idle, a chip-maintenance lump P_cm that is paid
// once whenever any core is awake, and the dynamic power actually spent
// executing applications.
//
// The simulator exposes the observation and actuation surface the paper's
// runtime uses on its Xeon-2620 — per-application power draw,
// frequency/core/DRAM knobs, run/suspend, socket sleep — so the policies
// drive it the way the prototype drove the hardware.
package simhw

import "fmt"

// Config describes a server platform. The zero value is not useful; start
// from DefaultConfig (the paper's Table I) and adjust.
type Config struct {
	// Sockets is the number of CPU packages. Table I: 2 NUMA nodes.
	Sockets int
	// CoresPerSocket is the number of physical cores per package.
	// Table I: 12 cores total on 2 sockets.
	CoresPerSocket int

	// FreqMinGHz and FreqMaxGHz bound the per-core DVFS ladder, and
	// FreqStepGHz is its granularity. Table I: 1.2-2.0 GHz in 9 steps.
	FreqMinGHz  float64
	FreqMaxGHz  float64
	FreqStepGHz float64

	// PIdleWatts is the floor the server draws regardless of load:
	// LLC leakage, DRAM self-refresh, fans, disks. Table I: 50 W.
	PIdleWatts float64
	// PCmWatts is the chip-maintenance power: uncore components (LLC,
	// ring, memory controller, QPI) that switch on with the first awake
	// core and are paid once no matter how many applications run.
	// Table I: 20 W. This lump is what makes server power non-convex.
	PCmWatts float64

	// CoreStaticWatts is drawn by each un-gated core (and its private
	// caches) independent of activity; core consolidation (the n knob)
	// exists to shed it.
	CoreStaticWatts float64
	// CoreDynMaxWatts is the switching power of one fully-active core at
	// FreqMaxGHz. Dynamic power scales as (f/fmax)^DVFSAlpha, the usual
	// f*V(f)^2 fit.
	CoreDynMaxWatts float64
	// DVFSAlpha is the exponent of the frequency-to-power fit.
	DVFSAlpha float64

	// MemChannels is the number of independently-capped DRAM domains
	// (one controller + DIMM per socket on the paper platform).
	MemChannels int
	// ChannelSharing is how many co-located applications may share one
	// DRAM channel (default 1: the paper's placement gives each
	// application its own controller). Raising it admits deeper
	// co-location; sharers split the channel bandwidth, which callers
	// model by scaling the applications' per-beat traffic.
	ChannelSharing int
	// MemMinWatts and MemMaxWatts bound each channel's DRAM RAPL limit,
	// settable in MemStepWatts units. Paper: 3-10 W in 1 W steps.
	MemMinWatts  float64
	MemMaxWatts  float64
	MemStepWatts float64
	// MemPeakGBs is one channel's bandwidth at MemMaxWatts. A channel
	// capped at m watts delivers MemPeakGBs*(m/MemMaxWatts)^MemBWExp:
	// throttling DRAM power costs bandwidth sub-linearly.
	MemPeakGBs float64
	MemBWExp   float64

	// PC6WakeSeconds is the latency to leave socket deep sleep; the
	// paper cites wake-ups in the hundreds of microseconds.
	PC6WakeSeconds float64
}

// DefaultConfig returns the paper's Table I platform: a dual-socket
// Xeon-2620 with 12 cores at 1.2-2.0 GHz (9 steps), 50 W idle, 20 W
// chip-maintenance, and up to 60 W of dynamic power split between cores
// and two DRAM channels capped at 3-10 W each.
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		CoresPerSocket: 6,
		FreqMinGHz:     1.2,
		FreqMaxGHz:     2.0,
		FreqStepGHz:    0.1,
		PIdleWatts:     50,
		PCmWatts:       20,
		// 12 cores * 3.33 W + 2 channels * 10 W = 60 W of P_dynamic.
		CoreStaticWatts: 0.9,
		CoreDynMaxWatts: 2.43,
		DVFSAlpha:       2.2,
		MemChannels:     2,
		MemMinWatts:     3,
		MemMaxWatts:     10,
		MemStepWatts:    1,
		MemPeakGBs:      12.8, // one DDR3-1600 channel
		MemBWExp:        0.8,
		PC6WakeSeconds:  300e-6,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Sockets <= 0:
		return fmt.Errorf("simhw: Sockets must be positive, got %d", c.Sockets)
	case c.CoresPerSocket <= 0:
		return fmt.Errorf("simhw: CoresPerSocket must be positive, got %d", c.CoresPerSocket)
	case c.FreqMinGHz <= 0 || c.FreqMaxGHz < c.FreqMinGHz:
		return fmt.Errorf("simhw: frequency range [%g, %g] GHz is invalid", c.FreqMinGHz, c.FreqMaxGHz)
	case c.FreqStepGHz <= 0:
		return fmt.Errorf("simhw: FreqStepGHz must be positive, got %g", c.FreqStepGHz)
	case c.PIdleWatts < 0 || c.PCmWatts < 0:
		return fmt.Errorf("simhw: idle/chip-maintenance power must be non-negative (%g, %g)", c.PIdleWatts, c.PCmWatts)
	case c.CoreStaticWatts < 0 || c.CoreDynMaxWatts <= 0:
		return fmt.Errorf("simhw: core power constants invalid (static %g, dyn %g)", c.CoreStaticWatts, c.CoreDynMaxWatts)
	case c.DVFSAlpha <= 0:
		return fmt.Errorf("simhw: DVFSAlpha must be positive, got %g", c.DVFSAlpha)
	case c.MemChannels <= 0:
		return fmt.Errorf("simhw: MemChannels must be positive, got %d", c.MemChannels)
	case c.MemMinWatts <= 0 || c.MemMaxWatts < c.MemMinWatts:
		return fmt.Errorf("simhw: DRAM power range [%g, %g] W is invalid", c.MemMinWatts, c.MemMaxWatts)
	case c.MemStepWatts <= 0:
		return fmt.Errorf("simhw: MemStepWatts must be positive, got %g", c.MemStepWatts)
	case c.MemPeakGBs <= 0:
		return fmt.Errorf("simhw: MemPeakGBs must be positive, got %g", c.MemPeakGBs)
	case c.MemBWExp <= 0:
		return fmt.Errorf("simhw: MemBWExp must be positive, got %g", c.MemBWExp)
	}
	return nil
}

// TotalCores returns the number of physical cores on the platform.
func (c Config) TotalCores() int { return c.Sockets * c.CoresPerSocket }

// FreqSteps returns the DVFS ladder size (Table I: 9).
func (c Config) FreqSteps() int {
	return int((c.FreqMaxGHz-c.FreqMinGHz)/c.FreqStepGHz+0.5) + 1
}

// FreqLadder returns the available frequencies in ascending order.
func (c Config) FreqLadder() []float64 {
	n := c.FreqSteps()
	out := make([]float64, n)
	for i := range out {
		out[i] = c.FreqMinGHz + float64(i)*c.FreqStepGHz
	}
	out[n-1] = c.FreqMaxGHz // avoid drift from repeated float addition
	return out
}

// ClampFreq snaps f onto the DVFS ladder, rounding down (a core can never
// run faster than requested).
func (c Config) ClampFreq(f float64) float64 {
	if f <= c.FreqMinGHz {
		return c.FreqMinGHz
	}
	if f >= c.FreqMaxGHz {
		return c.FreqMaxGHz
	}
	steps := int((f - c.FreqMinGHz) / c.FreqStepGHz)
	return c.FreqMinGHz + float64(steps)*c.FreqStepGHz
}

// MemSteps returns the DRAM power-limit ladder for one channel, ascending.
func (c Config) MemSteps() []float64 {
	var out []float64
	for m := c.MemMinWatts; m <= c.MemMaxWatts+1e-9; m += c.MemStepWatts {
		out = append(out, m)
	}
	return out
}

// ClampMem snaps a DRAM power limit into [MemMinWatts, MemMaxWatts] on the
// MemStepWatts grid, rounding down.
func (c Config) ClampMem(m float64) float64 {
	if m <= c.MemMinWatts {
		return c.MemMinWatts
	}
	if m >= c.MemMaxWatts {
		return c.MemMaxWatts
	}
	steps := int((m - c.MemMinWatts) / c.MemStepWatts)
	return c.MemMinWatts + float64(steps)*c.MemStepWatts
}

// MaxDynamicWatts returns the platform's maximum dynamic power: all cores
// fully active at top frequency plus all DRAM channels at their cap
// (Table I: 60 W).
func (c Config) MaxDynamicWatts() float64 {
	return float64(c.TotalCores())*(c.CoreStaticWatts+c.CoreDynMaxWatts) +
		float64(c.MemChannels)*c.MemMaxWatts
}

// MaxServerWatts returns the nameplate draw: idle + chip maintenance +
// maximum dynamic power.
func (c Config) MaxServerWatts() float64 {
	return c.PIdleWatts + c.PCmWatts + c.MaxDynamicWatts()
}
