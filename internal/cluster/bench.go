package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// This file is the apportioning-DP benchmark harness behind cmd/psbench
// and the dp_cells of the committed BENCH_ctrlplane.json baseline. It
// measures the planner, not the wire: the full ApportionCurves DP
// against the Apportioner's incremental fast path over the same
// deterministic curve-mutation stream, so the committed speedup is the
// one the coordinator actually sees when k of n learned curves move
// between intervals. Every interval the two paths' outputs are compared
// bit for bit — the cell is a correctness gate as much as a perf one.

// DPBenchCell is one (members, changed-per-interval) measurement — the
// unit committed to BENCH_ctrlplane.json's dp_cells.
type DPBenchCell struct {
	Members   int `json:"members"`
	Changed   int `json:"changed_per_interval"`
	Runs      int `json:"runs"`
	Intervals int `json:"intervals_per_run"`

	// FullNsPerInterval / IncNsPerInterval are the minimum across runs
	// of mean wall time per interval for the full DP and the
	// incremental apportioner over identical inputs.
	FullNsPerInterval int64 `json:"full_ns_per_interval"`
	IncNsPerInterval  int64 `json:"inc_ns_per_interval"`
	// MeanLayersRecomputed is the mean member layers the incremental
	// path rebuilt per interval — the structural sublinearity witness
	// (the full DP always rebuilds all Members layers). Deterministic:
	// the mutation stream is seeded.
	MeanLayersRecomputed float64 `json:"mean_layers_recomputed"`
	// Speedup is FullNsPerInterval / IncNsPerInterval.
	Speedup float64 `json:"speedup"`
}

// dpBenchCurve builds member i's curve at mutation version ver on the
// canonical 2 W grid: a saturating utility whose knee moves with
// (i, ver), so every mutation genuinely changes the DP's inputs.
func dpBenchCurve(i, ver int) []CapPoint {
	const floorW, nameplateW = 50.0, 130.0
	tau := 25 + float64((i*13+ver*29)%50)
	norm := 1 - math.Exp(-nameplateW/tau)
	var pts []CapPoint
	for c := floorW; c <= nameplateW; c += ServerCapStepW {
		pts = append(pts, CapPoint{CapW: c, Perf: (1 - math.Exp(-c/tau)) / norm, GridW: c})
	}
	return pts
}

// RunDPBench measures one cell: n member curves, k of them mutated per
// interval at seeded positions, the cluster cap cycling through a small
// deterministic band. Both paths run on identical inputs each interval
// and must agree bit for bit.
func RunDPBench(members, changed, runs, intervals int) (DPBenchCell, error) {
	if members <= 0 || changed < 0 || changed > members {
		return DPBenchCell{}, fmt.Errorf("cluster: dp bench %d members, %d changed", members, changed)
	}
	if runs <= 0 {
		runs = 5
	}
	if intervals <= 0 {
		intervals = 10
	}
	const floorW = 50.0
	curves := make([][]CapPoint, members)
	vers := make([]int, members)
	for i := range curves {
		curves[i] = dpBenchCurve(i, 0)
	}
	capAt := func(iv int) float64 {
		// Cycle below the warmup cap, as a live coordinator's cap moves
		// below its boot-time one: dirty layers are rebuilt over the
		// interval's own level count and extended when the cap rises.
		return float64(members) * (85 + float64(iv%6))
	}

	var inc Apportioner
	rng := rand.New(rand.NewSource(1))
	// Warmup at the highest cap in the cycle, so every layer starts as
	// wide as a long-lived coordinator's would be.
	inc.Apportion(float64(members)*90, floorW, curves)

	cell := DPBenchCell{Members: members, Changed: changed, Runs: runs, Intervals: intervals}
	var recomputed int
	for run := 0; run < runs; run++ {
		var fullNs, incNs int64
		for iv := 0; iv < intervals; iv++ {
			for c := 0; c < changed; c++ {
				i := rng.Intn(members)
				vers[i]++
				curves[i] = dpBenchCurve(i, vers[i])
			}
			capW := capAt(run*intervals + iv)

			t0 := time.Now()
			ib, ip, ig := inc.Apportion(capW, floorW, curves)
			incNs += time.Since(t0).Nanoseconds()
			recomputed += inc.LastRecomputed()

			t0 = time.Now()
			fb, fp, fg := ApportionCurves(capW, floorW, curves)
			fullNs += time.Since(t0).Nanoseconds()

			if ip != fp || ig != fg {
				return DPBenchCell{}, fmt.Errorf("cluster: dp bench run %d iv %d: incremental (perf %g, grid %g) diverged from full (perf %g, grid %g)",
					run, iv, ip, ig, fp, fg)
			}
			for i := range fb {
				if ib[i] != fb[i] {
					return DPBenchCell{}, fmt.Errorf("cluster: dp bench run %d iv %d: member %d budget %g != full DP %g",
						run, iv, i, ib[i], fb[i])
				}
			}
		}
		fullMean := fullNs / int64(intervals)
		incMean := incNs / int64(intervals)
		if run == 0 || fullMean < cell.FullNsPerInterval {
			cell.FullNsPerInterval = fullMean
		}
		if run == 0 || incMean < cell.IncNsPerInterval {
			cell.IncNsPerInterval = incMean
		}
	}
	cell.MeanLayersRecomputed = float64(recomputed) / float64(runs*intervals)
	if cell.IncNsPerInterval > 0 {
		cell.Speedup = float64(cell.FullNsPerInterval) / float64(cell.IncNsPerInterval)
	}
	return cell, nil
}
