package coordinator

import (
	"fmt"
	"slices"

	"powerstruggle/internal/esd"
	"powerstruggle/internal/workload"
)

// Sample is one point of a run's time series.
type Sample struct {
	// T is simulated seconds since the run began.
	T float64
	// ServerW is the server's draw (idle + P_cm + dynamic).
	ServerW float64
	// GridW is what the feed actually supplies: server draw plus ESD
	// charging minus ESD discharging. Cap adherence is about GridW.
	GridW float64
	// SoC is the ESD state of charge (0 when no device is attached).
	SoC float64
	// AppW is each application's dynamic draw. A sample returned by
	// Executor.Step or Idle shares the executor's buffer and is valid
	// until the next step; Runner's recorded samples own theirs.
	AppW []float64
}

// RunResult summarizes executing a schedule for a while.
type RunResult struct {
	// Samples is the decimated time series.
	Samples []Sample
	// AppBeats is each application's delivered heartbeats.
	AppBeats []float64
	// AppNormPerf is each application's delivered rate normalized to
	// its uncapped rate — the measured counterpart of the schedule's
	// AppPerf prediction.
	AppNormPerf []float64
	// TotalPerf is the measured objective (1).
	TotalPerf float64
	// MaxGridW is the peak observed grid draw.
	MaxGridW float64
	// CapViolations counts steps whose grid draw exceeded the cap by
	// more than capSlack.
	CapViolations int
	// GridEnergyJ is the total energy supplied by the feed.
	GridEnergyJ float64
	// Seconds is the simulated duration.
	Seconds float64
}

// capSlack is the tolerance for counting cap violations, covering
// floating-point noise in the power composition.
const capSlack = 1e-6

// Runner executes one coordinator schedule against fresh simulated
// hardware for a fixed duration — the measurement harness behind every
// steady-state result.
type Runner struct {
	Config    Config
	Profiles  []*workload.Profile
	Instances []*workload.Instance
	Device    *esd.Device // nil when the server has no storage

	// StepSeconds is the integration step; 0 means 10 ms.
	StepSeconds float64
	// SampleEvery decimates the recorded series to one sample per this
	// many seconds; 0 means every step.
	SampleEvery float64
}

// Run executes sched for seconds of simulated time and returns the
// measured result.
func (r *Runner) Run(sched Schedule, seconds float64) (RunResult, error) {
	n := len(r.Profiles)
	if n == 0 || len(r.Instances) != n {
		return RunResult{}, fmt.Errorf("coordinator: runner needs matching profiles and instances (%d vs %d)", n, len(r.Instances))
	}
	ex, err := NewExecutor(r.Config, r.Device)
	if err != nil {
		return RunResult{}, err
	}
	startBeats := make([]float64, n)
	for i := range r.Profiles {
		if _, err := ex.AddApp(r.Profiles[i], r.Instances[i]); err != nil {
			return RunResult{}, err
		}
		startBeats[i] = r.Instances[i].Beats()
	}
	if err := ex.SetSchedule(sched); err != nil {
		return RunResult{}, err
	}

	dt := r.StepSeconds
	if dt <= 0 {
		dt = 0.01
	}
	res := RunResult{
		AppBeats:    make([]float64, n),
		AppNormPerf: make([]float64, n),
		Seconds:     seconds,
	}
	lastSample := -1e18
	for t := 0.0; t < seconds-dt/2; t += dt {
		s, err := ex.Step(dt)
		if err != nil {
			return RunResult{}, err
		}
		res.GridEnergyJ += s.GridW * dt
		if s.GridW > res.MaxGridW {
			res.MaxGridW = s.GridW
		}
		if r.Config.CapW > 0 && s.GridW > r.Config.CapW+capSlack {
			res.CapViolations++
		}
		if r.SampleEvery <= 0 || t-lastSample >= r.SampleEvery-1e-12 {
			s.AppW = slices.Clone(s.AppW)
			res.Samples = append(res.Samples, s)
			lastSample = t
		}
	}

	for i, p := range r.Profiles {
		res.AppBeats[i] = r.Instances[i].Beats() - startBeats[i]
		if nc := p.NoCapRate(r.Config.HW); nc > 0 && seconds > 0 {
			res.AppNormPerf[i] = res.AppBeats[i] / (nc * seconds)
		}
		res.TotalPerf += res.AppNormPerf[i]
	}
	return res, nil
}
