package exp

import (
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/trace"
	"powerstruggle/internal/workload"
)

// Fig12Level is one shaving level's outcome across strategies.
type Fig12Level struct {
	ShaveFrac     float64
	CeilingW      float64
	EventFraction float64
	Results       map[cluster.Strategy]cluster.Result
}

// Fig12Result carries the cluster peak-shaving study.
type Fig12Result struct {
	Demand []trace.Point
	Caps   map[float64][]trace.Point
	Levels []Fig12Level
	Report *Report
}

// Fig12Config tunes the cluster study.
type Fig12Config struct {
	// Servers is the fleet size (default 10, as in the paper).
	Servers int
	// ShaveFracs are the shaving levels (default 15, 30, 45%).
	ShaveFracs []float64
	// StepSeconds is the trace resolution (default 300 s).
	StepSeconds float64
	// Days is the trace length in days (default 1; weekends dampened).
	Days int
	// Seed drives trace synthesis.
	Seed int64
}

func (c Fig12Config) withDefaults() Fig12Config {
	if c.Servers == 0 {
		c.Servers = 10
	}
	if len(c.ShaveFracs) == 0 {
		c.ShaveFracs = []float64{0.15, 0.30, 0.45}
	}
	if c.StepSeconds == 0 {
		c.StepSeconds = 300
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// Fig12Strategies are the cluster strategies Fig. 12b compares, in
// report order.
var Fig12Strategies = []cluster.Strategy{cluster.EqualRAPL, cluster.EqualOurs, cluster.ConsolidateMigrate}

// Fleet builds the cluster simulation over n servers, one workload mix
// per server in rotation, and returns it with the fleet's uncapped draw.
func Fleet(env *Env, n int) (*cluster.Evaluator, float64, error) {
	mixes := workload.Mixes()
	assign := make([]workload.Mix, n)
	for i := range assign {
		assign[i] = mixes[i%len(mixes)]
	}
	ev, err := cluster.NewEvaluator(cluster.Config{HW: env.HW, Library: env.Lib, Mixes: assign})
	if err != nil {
		return nil, 0, err
	}
	uncapped, err := ev.UncappedClusterW()
	if err != nil {
		return nil, 0, err
	}
	return ev, uncapped, nil
}

// DiurnalDemand is Fig. 12a's demand trace: the synthetic diurnal load
// scaled by the fleet's uncapped draw.
func DiurnalDemand(uncappedW float64, cfg trace.Config) ([]trace.Point, error) {
	load, err := trace.DiurnalLoad(cfg)
	if err != nil {
		return nil, err
	}
	demand := make([]trace.Point, len(load))
	for i, p := range load {
		demand[i] = trace.Point{T: p.T, V: p.V * uncappedW}
	}
	return demand, nil
}

// Fig12 regenerates Fig. 12: dynamic peak-shaving caps derived from a
// diurnal cluster trace (12a) replayed over the fleet under the three
// cluster strategies (12b).
func Fig12(env *Env, cfg Fig12Config) (*Fig12Result, error) {
	cfg = cfg.withDefaults()
	ev, uncapped, err := Fleet(env, cfg.Servers)
	if err != nil {
		return nil, err
	}
	// The cap trace is external (a connection-intensive service's power
	// draw); scale its peak to the fleet's unconstrained draw.
	demand, err := DiurnalDemand(uncapped, trace.Config{Seed: cfg.Seed, StepSeconds: cfg.StepSeconds, Days: cfg.Days})
	if err != nil {
		return nil, err
	}

	res := &Fig12Result{
		Demand: demand,
		Caps:   make(map[float64][]trace.Point),
		Report: &Report{ID: "Fig 12", Title: "Cluster level peak shaving"},
	}
	res.Report.addf("fleet: %d servers, uncapped draw %.0f W", cfg.Servers, uncapped)
	res.Report.addf("(a) dynamic power caps (ceilings):")
	for _, sh := range cfg.ShaveFracs {
		caps, err := trace.PeakShaveCaps(demand, sh, uncapped)
		if err != nil {
			return nil, err
		}
		res.Caps[sh] = caps
		res.Report.addf("  shave %2.0f%%: ceiling %6.0f W, binding %2.0f%% of the day",
			sh*100, (1-sh)*trace.Peak(demand), trace.EventFraction(caps, uncapped)*100)
	}
	res.Report.addf("(b) aggregate performance (fraction of uncapped):")
	for _, sh := range cfg.ShaveFracs {
		level := Fig12Level{
			ShaveFrac:     sh,
			CeilingW:      (1 - sh) * trace.Peak(demand),
			EventFraction: trace.EventFraction(res.Caps[sh], uncapped),
			Results:       make(map[cluster.Strategy]cluster.Result),
		}
		for _, s := range Fig12Strategies {
			r, err := ev.Evaluate(res.Caps[sh], s)
			if err != nil {
				return nil, err
			}
			level.Results[s] = r
			res.Report.addf("  shave %2.0f%% %-32s perf %5.1f%%  eff %6.3f  violations %d",
				sh*100, s, r.AvgPerfFrac*100, r.Efficiency, r.CapViolations)
		}
		res.Levels = append(res.Levels, level)
	}
	// Terminal rendering: the demand/cap shapes and strategy bars.
	demandV := make([]float64, len(demand))
	for i, p := range demand {
		demandV[i] = p.V
	}
	res.Report.addf("demand trace: %s", sparkline(downsample(demandV, 72)))
	for _, sh := range cfg.ShaveFracs {
		capsV := make([]float64, len(res.Caps[sh]))
		for i, p := range res.Caps[sh] {
			capsV[i] = p.V
		}
		res.Report.addf("caps @%2.0f%%:   %s", sh*100, sparkline(downsample(capsV, 72)))
	}
	for _, lv := range res.Levels {
		labels := make([]string, 0, len(Fig12Strategies))
		values := make([]float64, 0, len(Fig12Strategies))
		for _, st := range Fig12Strategies {
			labels = append(labels, st.String())
			values = append(values, lv.Results[st].AvgPerfFrac*100)
		}
		res.Report.addf("shave %2.0f%% (perf %% of uncapped):", lv.ShaveFrac*100)
		res.Report.Lines = append(res.Report.Lines, barChart(labels, values, 40)...)
	}

	// Headline efficiency comparisons.
	for _, lv := range res.Levels {
		rapl := lv.Results[cluster.EqualRAPL]
		ours := lv.Results[cluster.EqualOurs]
		cons := lv.Results[cluster.ConsolidateMigrate]
		if rapl.Efficiency > 0 && cons.Efficiency > 0 {
			res.Report.addf("  shave %2.0f%%: Ours vs RAPL %+.1f%%, vs Consolidation %+.1f%% (power efficiency)",
				lv.ShaveFrac*100, (ours.Efficiency/rapl.Efficiency-1)*100, (ours.Efficiency/cons.Efficiency-1)*100)
		}
	}
	return res, nil
}
