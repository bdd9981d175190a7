package allocator

import (
	"fmt"
	"math"

	"powerstruggle/internal/workload"
)

// Objective describes one application's term in a weighted allocation
// objective — the generalization of the paper's evenly-weighed objective
// (1) that its footnote on latency-critical applications calls for.
type Objective struct {
	// Weight scales the application's normalized performance in the
	// objective; the paper's objective (1) uses 1 for everyone.
	Weight float64
	// FloorPerf is a minimum normalized performance (an SLO): the
	// allocation is infeasible unless every floor is met. 0 means
	// best-effort.
	FloorPerf float64
}

// ApportionWeighted splits budget watts across applications maximizing
// the weighted sum of normalized performances subject to per-application
// performance floors. Floors turn latency-critical co-location into the
// paper's framework: the latency-critical application states the
// normalized throughput its SLO needs, and only the leftover watts are
// up for utility-maximizing grabs. objs == nil is the paper's objective
// (1): every weight 1 and every floor 0.
//
// It returns ErrInfeasible (wrapped) when the floors cannot all be met
// within the budget.
func ApportionWeighted(curves []*workload.Curve, objs []Objective, budget, stepW float64) (Plan, error) {
	t, err := solve(curves, objs, budget, stepW)
	if err != nil {
		return Plan{}, err
	}
	return t.walk(t.levels - 1), nil
}

// table is one solved apportioning DP over the budget levels
// 0..levels-1, stepW watts apart.
type table struct {
	curves []*workload.Curve
	stepW  float64
	levels int
	// choice[i*levels+l] is how many levels application i takes when the
	// first i+1 applications share level l.
	choice []int
}

// solve validates the inputs, scores every application at every budget
// level and runs the DP over applications. It fails with ErrInfeasible
// when the floors do not fit in the full budget.
func solve(curves []*workload.Curve, objs []Objective, budget, stepW float64) (table, error) {
	if len(curves) == 0 {
		return table{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if objs != nil && len(objs) != len(curves) {
		return table{}, fmt.Errorf("allocator: %d objectives for %d applications", len(objs), len(curves))
	}
	for i, o := range objs {
		if o.Weight < 0 {
			return table{}, fmt.Errorf("allocator: application %d has negative weight %g", i, o.Weight)
		}
		if o.FloorPerf < 0 || o.FloorPerf > 1 {
			return table{}, fmt.Errorf("allocator: application %d has floor %g outside [0, 1]", i, o.FloorPerf)
		}
	}
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	if budget < 0 {
		budget = 0
	}
	levels := int(budget/stepW) + 1

	// Row i of scoreAt (levels wide) is application i's weighted
	// objective at each budget level, -Inf below its floor; minLevels[i]
	// is the cheapest level meeting the floor.
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
			return table{}, fmt.Errorf("allocator: %w: application %d cannot reach floor %.2f under %.1f W",
				ErrInfeasible, i, floor, budget)
		}
	}

	// DP over applications: best[l] is the max objective using budget
	// l*stepW over the applications so far, and row i of choice records
	// how many levels application i took. PerfAt is monotone, so the -Inf
	// cells are a prefix of each row: below minLevels[i] in scoreAt, and
	// below the floors' running sum lo in best. The loop bounds skip
	// exactly those, and a level that leaves no k is -Inf with choice -1.
	// No cell reads a level above its own, so with every floor 0 the
	// table's first m levels are exactly the table solved for m levels.
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
		return table{}, fmt.Errorf("allocator: %w: floors need more than %.1f W", ErrInfeasible, budget)
	}
	return table{curves: curves, stepW: stepW, levels: levels, choice: choice}, nil
}

// walk reads the plan at budget level l back out of the choices.
func (t table) walk(l int) Plan {
	plan := Plan{Allocs: make([]Allocation, len(t.curves))}
	for i := len(t.curves) - 1; i >= 0; i-- {
		k := t.choice[i*t.levels+l]
		share := float64(k) * t.stepW
		pt, ok := t.curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
		l -= k
	}
	return plan
}

// ErrInfeasible marks allocations whose performance floors cannot be met
// within the budget; callers test with errors.Is.
var ErrInfeasible = fmt.Errorf("allocation infeasible")
