package allocator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

func TestWeightedValidation(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	if _, err := ApportionWeighted(nil, nil, 10, 0); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := ApportionWeighted(curves, []Objective{{Weight: 1}}, 10, 0); err == nil {
		t.Error("mismatched objective count accepted")
	}
	if _, err := ApportionWeighted(curves, []Objective{{Weight: -1}, {Weight: 1}}, 10, 0); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ApportionWeighted(curves, []Objective{{Weight: 1, FloorPerf: 2}, {Weight: 1}}, 10, 0); err == nil {
		t.Error("floor above 1 accepted")
	}
}

func TestWeightedReducesToUnweighted(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	even := []Objective{{Weight: 1}, {Weight: 1}}
	for _, budget := range []float64{10, 20, 30} {
		w, err := ApportionWeighted(curves, even, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		u, err := Apportion(curves, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.TotalPerf-u.TotalPerf) > 1e-9 {
			t.Errorf("budget %g: weighted-with-unit-weights %g vs unweighted %g",
				budget, w.TotalPerf, u.TotalPerf)
		}
	}
}

func TestWeightsShiftTheSplit(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const budget = 24.0
	even, err := ApportionWeighted(curves, []Objective{{Weight: 1}, {Weight: 1}}, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Heavily favoring application 1 must not reduce its share.
	skew, err := ApportionWeighted(curves, []Objective{{Weight: 5}, {Weight: 1}}, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if skew.Allocs[0].BudgetW < even.Allocs[0].BudgetW {
		t.Errorf("5x weight reduced the share: %g -> %g",
			even.Allocs[0].BudgetW, skew.Allocs[0].BudgetW)
	}
	if skew.Allocs[0].Perf() < even.Allocs[0].Perf() {
		t.Errorf("5x weight reduced performance: %g -> %g",
			even.Allocs[0].Perf(), skew.Allocs[0].Perf())
	}
}

func TestFloorsAreHonored(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const budget = 20.0
	// Give the latency-critical application (kmeans) a hard floor.
	objs := []Objective{{Weight: 1}, {Weight: 1, FloorPerf: 0.6}}
	plan, err := ApportionWeighted(curves, objs, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Allocs[1].Perf(); got+1e-9 < 0.6 {
		t.Errorf("floor violated: %g < 0.6", got)
	}
	// Without the floor the best-effort split gives kmeans less.
	free, err := Apportion(curves, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalPerf > free.TotalPerf+1e-9 {
		t.Errorf("constrained plan (%g) beats unconstrained (%g)", plan.TotalPerf, free.TotalPerf)
	}
}

func TestInfeasibleFloors(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	// Both demanding near-full performance under a tiny budget.
	objs := []Objective{{Weight: 1, FloorPerf: 0.95}, {Weight: 1, FloorPerf: 0.95}}
	_, err := ApportionWeighted(curves, objs, 15, 0)
	if err == nil {
		t.Fatal("infeasible floors accepted")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("error %v does not wrap ErrInfeasible", err)
	}
}

func TestWeightedSpendsWithinBudget(t *testing.T) {
	cfg, _, _ := testCurves(t, "STREAM")
	lib, _ := workload.NewLibrary(cfg)
	curves := []*workload.Curve{
		workload.OptimalCurve(cfg, lib.MustApp("X264")),
		workload.OptimalCurve(cfg, lib.MustApp("BFS")),
		workload.OptimalCurve(cfg, lib.MustApp("ferret")),
	}
	objs := []Objective{{Weight: 2, FloorPerf: 0.3}, {Weight: 1}, {Weight: 0.5, FloorPerf: 0.1}}
	for _, budget := range []float64{15, 25, 40} {
		plan, err := ApportionWeighted(curves, objs, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.SpentW > budget+1e-9 {
			t.Fatalf("budget %g: spent %g", budget, plan.SpentW)
		}
		for i, o := range objs {
			if o.FloorPerf > 0 && plan.Allocs[i].Perf()+1e-9 < o.FloorPerf {
				t.Fatalf("budget %g: application %d below floor", budget, i)
			}
		}
	}
}

func TestWeightedMatchesBruteForceWithFloors(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const step = 0.5
	objs := []Objective{{Weight: 2, FloorPerf: 0.3}, {Weight: 1, FloorPerf: 0.4}}
	for _, budget := range []float64{16, 22, 28} {
		plan, err := ApportionWeighted(curves, objs, budget, step)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force on the same grid.
		best := math.Inf(-1)
		for b0 := 0.0; b0 <= budget+1e-9; b0 += step {
			p0 := curves[0].PerfAt(b0)
			p1 := curves[1].PerfAt(budget - b0)
			if p0+1e-12 < objs[0].FloorPerf || p1+1e-12 < objs[1].FloorPerf {
				continue
			}
			if v := objs[0].Weight*p0 + objs[1].Weight*p1; v > best {
				best = v
			}
		}
		got := objs[0].Weight*plan.Allocs[0].Perf() + objs[1].Weight*plan.Allocs[1].Perf()
		if math.Abs(got-best) > 1e-9 {
			t.Errorf("budget %g: DP weighted objective %g, brute force %g", budget, got, best)
		}
	}
}

// referenceApportionWeighted is ApportionWeighted as it stood before the
// server tier ran the fleet tier's knapsack: its own dense scalar loop
// over every level of every application, -Inf below each floor, a -1
// choice where no split is feasible. It is retained verbatim as the
// oracle the shared DP is held to — plans, tie-breaks and errors.
func referenceApportionWeighted(curves []*workload.Curve, objs []Objective, budget, stepW float64) (Plan, error) {
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	if budget < 0 {
		budget = 0
	}
	levels := int(budget/stepW) + 1
	scoreAt := make([]float64, len(curves)*levels)
	minLevels := make([]int, len(curves))
	for i, c := range curves {
		weight, floor := 1.0, 0.0
		if objs != nil {
			weight, floor = objs[i].Weight, objs[i].FloorPerf
		}
		row := scoreAt[i*levels : (i+1)*levels]
		minLevels[i] = -1
		for l := range row {
			perf := c.PerfAt(float64(l) * stepW)
			if perf+1e-12 < floor {
				row[l] = math.Inf(-1)
				continue
			}
			if minLevels[i] == -1 {
				minLevels[i] = l
			}
			row[l] = weight * perf
		}
		if minLevels[i] == -1 {
			return Plan{}, fmt.Errorf("allocator: %w: application %d cannot reach floor %.2f under %.1f W",
				ErrInfeasible, i, floor, budget)
		}
	}
	best := make([]float64, levels)
	next := make([]float64, levels)
	choice := make([]int, len(curves)*levels)
	lo := 0
	for i := range curves {
		score := scoreAt[i*levels : (i+1)*levels]
		ch := choice[i*levels : (i+1)*levels]
		for l := range next {
			bestV, bestK := math.Inf(-1), -1
			for k := minLevels[i]; k <= l-lo; k++ {
				if v := best[l-k] + score[k]; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l], ch[l] = bestV, bestK
		}
		best, next = next, best
		lo += minLevels[i]
	}
	if math.IsInf(best[levels-1], -1) {
		return Plan{}, fmt.Errorf("allocator: %w: floors need more than %.1f W", ErrInfeasible, budget)
	}
	plan := Plan{Allocs: make([]Allocation, len(curves))}
	l := levels - 1
	for i := len(curves) - 1; i >= 0; i-- {
		k := choice[i*levels+l]
		share := float64(k) * stepW
		pt, ok := curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
		l -= k
	}
	return plan, nil
}

// TestApportionWeightedMatchesReference holds ApportionWeighted to the
// retained loop, plan for plan and error for error, over every pair of
// the library's OptimalCurves and RAPLCurves and a strided ring of
// triples, under seeded weights (zero included) and floors (some
// unreachable, some jointly infeasible), at budgets from 0 to past the
// set's saturation on two grid steps.
func TestApportionWeightedMatchesReference(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var curves []*workload.Curve
	for _, p := range lib.Apps() {
		curves = append(curves, workload.OptimalCurve(cfg, p), workload.RAPLCurve(cfg, p))
	}
	rng := rand.New(rand.NewSource(12))
	cases, infeasible := 0, 0
	check := func(set ...*workload.Curve) {
		var sat float64
		for _, c := range set {
			sat += c.MaxPower()
		}
		objs := make([]Objective, len(set))
		for i := range objs {
			objs[i] = Objective{Weight: []float64{0, 0.5, 1, 3}[rng.Intn(4)]}
			if rng.Intn(2) == 0 {
				objs[i].FloorPerf = rng.Float64()
			}
		}
		for j := 0; j <= 6; j++ {
			budget := 1.5 * sat * float64(j) / 6
			stepW := []float64{0, 1}[rng.Intn(2)]
			got, gotErr := ApportionWeighted(set, objs, budget, stepW)
			want, wantErr := referenceApportionWeighted(set, objs, budget, stepW)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("budget %g over %d curves, %+v: error %v, reference %v", budget, len(set), objs, gotErr, wantErr)
			}
			if gotErr != nil {
				infeasible++
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %g over %d curves, %+v: got %+v, reference %+v", budget, len(set), objs, got, want)
			}
			cases++
		}
	}
	for i := range curves {
		for j := i; j < len(curves); j++ {
			check(curves[i], curves[j])
		}
		check(curves[i], curves[(i+5)%len(curves)], curves[(i+11)%len(curves)])
	}
	t.Logf("%d cases bit-equal, %d of them infeasible", cases, infeasible)
}
