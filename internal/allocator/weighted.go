package allocator

import (
	"fmt"
	"math"

	"powerstruggle/internal/knapsack"
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
	t, err := solve(curves, objs, budget, stepW, budget)
	if err != nil {
		return Plan{}, err
	}
	return t.walk(t.levels - 1), nil
}

// Table is one solved apportioning DP over the budget levels
// 0..levels-1, stepW watts apart, kept for reads of levels readLo up.
// Sweep's Plan reads it out at any budget in that range.
type Table struct {
	curves         []*workload.Curve
	stepW          float64
	readLo, levels int
	// dp holds the choices: application i's point k is k levels.
	dp knapsack.Table[int32]
}

// solve validates the inputs, scores every application at every budget
// level and solves the DP for reads of the budgets from minBudget up to
// budget. It fails with ErrInfeasible when the floors do not fit in the
// full budget.
func solve(curves []*workload.Curve, objs []Objective, budget, stepW, minBudget float64) (Table, error) {
	if len(curves) == 0 {
		return Table{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if objs != nil && len(objs) != len(curves) {
		return Table{}, fmt.Errorf("allocator: %d objectives for %d applications", len(objs), len(curves))
	}
	for i, o := range objs {
		if o.Weight < 0 {
			return Table{}, fmt.Errorf("allocator: application %d has negative weight %g", i, o.Weight)
		}
		if o.FloorPerf < 0 || o.FloorPerf > 1 {
			return Table{}, fmt.Errorf("allocator: application %d has floor %g outside [0, 1]", i, o.FloorPerf)
		}
	}
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	if budget < 0 {
		budget = 0
	}
	levels := int(budget/stepW) + 1

	// Application i's point k is budget level k, worth its weighted
	// objective there: -Inf below its floor, which no split then takes.
	score := func(i, k int) float64 {
		weight, floor := objective(objs, i)
		perf := curves[i].PerfAt(float64(k) * stepW)
		if perf+1e-12 < floor {
			return math.Inf(-1)
		}
		return weight * perf
	}
	// PerfAt is monotone, so a floor the whole budget misses is missed at
	// every level.
	for i := range curves {
		if math.IsInf(score(i, levels-1), -1) {
			_, floor := objective(objs, i)
			return Table{}, fmt.Errorf("allocator: %w: application %d cannot reach floor %.2f under %.1f W",
				ErrInfeasible, i, floor, budget)
		}
	}
	readLo := min(levels-1, max(0, int(minBudget/stepW)))
	unit := knapsack.UnitCosts(levels)
	dp, last := knapsack.Solve[int32](len(curves), levels, readLo,
		func(int) []int { return unit },
		func(i int, dst []float64) {
			for k := range dst {
				dst[k] = score(i, k)
			}
		})
	if math.IsInf(last[levels-1], -1) {
		return Table{}, fmt.Errorf("allocator: %w: floors need more than %.1f W", ErrInfeasible, budget)
	}
	return Table{curves: curves, stepW: stepW, readLo: readLo, levels: levels, dp: dp}, nil
}

// objective is application i's weight and floor: the paper's 1 and 0
// when objs is nil.
func objective(objs []Objective, i int) (weight, floor float64) {
	if objs == nil {
		return 1, 0
	}
	return objs[i].Weight, objs[i].FloorPerf
}

// walk reads the plan at budget level l back out of the choices.
func (t Table) walk(l int) Plan {
	plan := Plan{Allocs: make([]Allocation, len(t.curves))}
	t.dp.Walk(l, func(i, k int) {
		share := float64(k) * t.stepW
		pt, ok := t.curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
	})
	return plan
}

// ErrInfeasible marks allocations whose performance floors cannot be met
// within the budget; callers test with errors.Is.
var ErrInfeasible = fmt.Errorf("allocation infeasible")
