package workload

import (
	"fmt"
	"math"

	"powerstruggle/internal/simhw"
)

// Class tags an application with the workload family the paper draws it
// from (Table II's parenthesized types).
type Class string

// The workload families of the paper's evaluation.
const (
	ClassMemory    Class = "memory"
	ClassAnalytics Class = "analytics"
	ClassGraph     Class = "graph"
	ClassSearch    Class = "search"
	ClassMedia     Class = "media"
)

// smoothMinExp controls how sharply the roofline transitions between the
// compute- and memory-bound regimes. Higher is closer to a hard min.
const smoothMinExp = 4.0

// Profile is the analytic model of one application: how fast it runs and
// how much power it draws at any (f, n, m) knob setting on a platform.
//
// Rates are expressed in heartbeats per second (the paper measures
// performance with the Application Heartbeats interface); all evaluation
// results normalize rates to the application's own uncapped rate, so the
// absolute scale only matters relative to MemBytesPerBeat.
type Profile struct {
	// Name is the benchmark's name as used in Table II.
	Name string
	// Class is the workload family.
	Class Class

	// BaseRate is the compute-side heartbeat rate of one core at 1 GHz
	// with unbounded memory bandwidth.
	BaseRate float64
	// ParallelFrac is the Amdahl parallel fraction p; throughput on n
	// cores scales by 1/((1-p) + p/n).
	ParallelFrac float64
	// MemBytesPerBeat is the DRAM traffic one heartbeat generates, in
	// gigabytes. Together with the channel bandwidth it sets the memory
	// roofline: rateMem = bandwidth(m)/MemBytesPerBeat.
	MemBytesPerBeat float64
	// CPUActivity is the switching-activity factor of the application's
	// cores in [0, 1]; memory-stalled cores draw less dynamic power.
	CPUActivity float64
	// MaxCores is the application's core entitlement on its socket
	// (Table I platform: 6).
	MaxCores int

	// Phases optionally makes the application non-stationary (the
	// paper's event E4). Empty means a single steady phase.
	Phases []Phase
}

// Phase is one steady interval of a non-stationary application. Scales
// multiply the base profile's parameters for the phase's duration; the
// phase list cycles.
type Phase struct {
	// Seconds is the phase duration in application-local busy time.
	Seconds float64
	// MemScale multiplies MemBytesPerBeat (a phase can become more or
	// less memory-bound).
	MemScale float64
	// ActivityScale multiplies CPUActivity.
	ActivityScale float64
}

// Validate reports whether the profile is internally consistent.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case p.BaseRate <= 0:
		return fmt.Errorf("workload: %s: BaseRate must be positive, got %g", p.Name, p.BaseRate)
	case p.ParallelFrac < 0 || p.ParallelFrac >= 1:
		return fmt.Errorf("workload: %s: ParallelFrac must be in [0, 1), got %g", p.Name, p.ParallelFrac)
	case p.MemBytesPerBeat < 0:
		return fmt.Errorf("workload: %s: MemBytesPerBeat must be non-negative, got %g", p.Name, p.MemBytesPerBeat)
	case p.CPUActivity <= 0 || p.CPUActivity > 1:
		return fmt.Errorf("workload: %s: CPUActivity must be in (0, 1], got %g", p.Name, p.CPUActivity)
	case p.MaxCores <= 0:
		return fmt.Errorf("workload: %s: MaxCores must be positive, got %d", p.Name, p.MaxCores)
	}
	for i, ph := range p.Phases {
		if ph.Seconds <= 0 || ph.MemScale <= 0 || ph.ActivityScale <= 0 {
			return fmt.Errorf("workload: %s: phase %d has non-positive parameters", p.Name, i)
		}
	}
	return nil
}

// Speedup returns the Amdahl throughput scaling of n cores relative to
// one core.
func (p *Profile) Speedup(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / ((1 - p.ParallelFrac) + p.ParallelFrac/float64(n))
}

// ComputeRate returns the compute-roofline heartbeat rate at frequency f
// on n cores (no memory limit).
func (p *Profile) ComputeRate(f float64, n int) float64 {
	if f <= 0 || n <= 0 {
		return 0
	}
	return p.BaseRate * f * p.Speedup(n)
}

// MemRate returns the memory-roofline heartbeat rate the DRAM limit m
// sustains on cfg. Applications with no memory traffic are unbounded.
func (p *Profile) MemRate(cfg simhw.Config, m float64) float64 {
	if p.MemBytesPerBeat <= 0 {
		return math.Inf(1)
	}
	return cfg.MemBandwidthGBs(m) / p.MemBytesPerBeat
}

// Rate returns the delivered heartbeat rate at knob setting k on cfg: a
// smooth minimum of the compute and memory rooflines.
func (p *Profile) Rate(cfg simhw.Config, k Knobs) float64 {
	k = k.Clamp(cfg, p.MaxCores)
	rc := p.ComputeRate(k.FreqGHz, k.Cores)
	rm := p.MemRate(cfg, k.MemWatts)
	return smoothMin(rc, rm)
}

// smoothMin blends two rooflines: (a^-q + b^-q)^(-1/q). It approaches
// min(a, b) as q grows while keeping a mild gradient on the slack side,
// matching the soft knee measured rooflines show.
func smoothMin(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	if math.IsInf(b, 1) {
		return a
	}
	if math.IsInf(a, 1) {
		return b
	}
	return math.Pow(math.Pow(a, -smoothMinExp)+math.Pow(b, -smoothMinExp), -1/smoothMinExp)
}

// MemDemandGBs returns the DRAM bandwidth the application pulls at knob
// setting k: its delivered rate times its per-beat traffic, never more
// than the channel's limit-imposed bandwidth.
func (p *Profile) MemDemandGBs(cfg simhw.Config, k Knobs) float64 {
	if p.MemBytesPerBeat <= 0 {
		return 0
	}
	demand := p.Rate(cfg, k) * p.MemBytesPerBeat
	if cap := cfg.MemBandwidthGBs(k.MemWatts); demand > cap {
		demand = cap
	}
	return demand
}

// MemDrawWatts returns the DRAM power the application actually pulls at
// knob setting k: the channel floor plus traffic-proportional power, and
// never more than the limit m. Compute-bound applications draw near the
// floor no matter how high their limit — which is why shifting their DRAM
// watts to cores is free.
func (p *Profile) MemDrawWatts(cfg simhw.Config, k Knobs) float64 {
	k = k.Clamp(cfg, p.MaxCores)
	used := p.MemDemandGBs(cfg, k)
	draw := cfg.MemMinWatts + (used/cfg.MemPeakGBs)*(cfg.MemMaxWatts-cfg.MemMinWatts)
	if draw > k.MemWatts {
		draw = k.MemWatts
	}
	return draw
}

// Power returns the application's dynamic power P_X at knob setting k on
// cfg: core static + activity-scaled switching power on its n cores plus
// its actual DRAM draw. It excludes the shared P_idle and P_cm.
func (p *Profile) Power(cfg simhw.Config, k Knobs) float64 {
	k = k.Clamp(cfg, p.MaxCores)
	return float64(k.Cores)*cfg.CoreWatts(k.FreqGHz, p.CPUActivity) + p.MemDrawWatts(cfg, k)
}

// NoCapKnobs returns the application's unconstrained operating point.
func (p *Profile) NoCapKnobs(cfg simhw.Config) Knobs {
	return MaxKnobs(cfg, p.MaxCores)
}

// NoCapRate returns the application's uncapped heartbeat rate, the
// denominator of every normalized result in the paper.
func (p *Profile) NoCapRate(cfg simhw.Config) float64 {
	return p.Rate(cfg, p.NoCapKnobs(cfg))
}

// NoCapPower returns the application's uncapped dynamic draw.
func (p *Profile) NoCapPower(cfg simhw.Config) float64 {
	return p.Power(cfg, p.NoCapKnobs(cfg))
}

// NormRate returns the delivered rate at k normalized to the uncapped
// rate, i.e. the Perf_X(...)/Perf_X_nocap term of the paper's objective.
func (p *Profile) NormRate(cfg simhw.Config, k Knobs) float64 {
	nc := p.NoCapRate(cfg)
	if nc <= 0 {
		return 0
	}
	return p.Rate(cfg, k) / nc
}

// PhaseAt returns the effective profile during the phase active after the
// application has been busy for t seconds. Profiles without phases return
// themselves.
func (p *Profile) PhaseAt(t float64) *Profile {
	i := p.phaseIndex(t)
	if i < 0 {
		return p
	}
	return p.phaseProfile(i)
}

// phaseIndex returns the index of the phase active after t busy seconds,
// or -1 when the profile itself is in force (no phases, or a cycle of
// zero length).
func (p *Profile) phaseIndex(t float64) int {
	if len(p.Phases) == 0 {
		return -1
	}
	var cycle float64
	for _, ph := range p.Phases {
		cycle += ph.Seconds
	}
	if cycle <= 0 {
		return -1
	}
	t = math.Mod(t, cycle)
	for i, ph := range p.Phases {
		if t < ph.Seconds {
			return i
		}
		t -= ph.Seconds
	}
	return -1
}

// phaseProfile returns a fresh steady copy of p as it behaves during
// phase i.
func (p *Profile) phaseProfile(i int) *Profile {
	ph := p.Phases[i]
	out := *p
	out.MemBytesPerBeat *= ph.MemScale
	out.CPUActivity = clamp01(out.CPUActivity * ph.ActivityScale)
	out.Phases = nil
	return &out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
