// Package allocator implements the paper's PowerAllocator: apportioning a
// server's dynamic power budget across co-located applications (R1) by
// the relative utility of each watt, where each application's utility
// curve already encodes the best intra-application split across its
// direct resources (R2) — or deliberately does not, for the baselines.
//
// The apportioning itself is solved exactly by dynamic programming over a
// discretized budget: per-application utility curves are arbitrary
// monotone step functions (they need not be concave — P_cm and the core
// ladder make them lumpy), so marginal-utility greedy can be suboptimal;
// at the paper's scale (a few applications, tens of watts) the DP is
// exact and cheap.
package allocator

import (
	"fmt"
	"math"
	"time"

	"powerstruggle/internal/workload"
)

// DefaultStepW is the budget discretization of the DP, half of the
// paper's finest knob granularity (1 W DRAM steps).
const DefaultStepW = 0.5

// Allocation is one application's share of the server budget.
type Allocation struct {
	// BudgetW is the power apportioned to the application.
	BudgetW float64
	// Point is the operating point its curve affords under BudgetW;
	// Point.PowerW <= BudgetW. Zero-valued (with Runnable false) when
	// the share cannot run the application at all.
	Point workload.Point
	// Runnable reports whether the share admits any operating point.
	Runnable bool
}

// Perf returns the allocation's normalized performance (0 if not
// runnable).
func (a Allocation) Perf() float64 {
	if !a.Runnable {
		return 0
	}
	return a.Point.Perf
}

// Plan is a complete apportioning of a dynamic budget.
type Plan struct {
	// Allocs has one entry per input curve, in order.
	Allocs []Allocation
	// TotalPerf is the paper's objective (1): the sum of normalized
	// performances.
	TotalPerf float64
	// SpentW is the sum of the chosen operating points' power draws.
	SpentW float64
}

// Apportion splits budget watts across the applications described by
// curves, maximizing the sum of normalized performances (the paper's
// objective with all applications weighed evenly). stepW sets the DP
// resolution; pass 0 for DefaultStepW. It is ApportionWeighted with no
// objectives.
func Apportion(curves []*workload.Curve, budget, stepW float64) (plan Plan, err error) {
	if h := tel.Load(); h != nil {
		start := time.Now()
		defer func() {
			if err == nil {
				h.observeSolve("dp", start, math.Max(budget, 0), plan)
			}
		}()
	}
	return ApportionWeighted(curves, nil, budget, stepW)
}

// Sweep solves the Apportion DP once, at DefaultStepW, for every budget
// from minBudget up to maxBudget: the search a caller would otherwise run
// as one Apportion per grid point costs one solve plus a read-out per
// point.
func Sweep(curves []*workload.Curve, minBudget, maxBudget float64) (*Table, error) {
	var start time.Time
	h := tel.Load()
	if h != nil {
		start = time.Now()
	}
	t, err := solve(curves, nil, maxBudget, DefaultStepW, minBudget)
	if err != nil {
		return nil, err
	}
	if h != nil {
		h.observeSolve("dp", start, math.Max(maxBudget, 0), t.walk(t.levels-1))
	}
	return &t, nil
}

// Plan returns exactly what Apportion(curves, budget, 0) returns, read
// from the solved table. budget must lie within the sweep's range.
func (s *Table) Plan(budget float64) (Plan, error) {
	if budget < 0 {
		budget = 0
	}
	l := int(budget / s.stepW)
	if l < s.readLo || l >= s.levels {
		return Plan{}, fmt.Errorf("allocator: budget %.1f W outside the %.1f to %.1f W the table was solved for",
			budget, float64(s.readLo)*s.stepW, float64(s.levels-1)*s.stepW)
	}
	return s.walk(l), nil
}

// EqualSplit apportions the budget evenly across all applications — the
// Util-Unaware baseline's R1 decision — and reads each application's
// operating point off its curve.
func EqualSplit(curves []*workload.Curve, budget float64) (plan Plan, err error) {
	if len(curves) == 0 {
		return Plan{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if h := tel.Load(); h != nil {
		start := time.Now()
		defer func() { h.observeSolve("equal", start, budget, plan) }()
	}
	if budget < 0 {
		budget = 0
	}
	share := budget / float64(len(curves))
	plan = Plan{Allocs: make([]Allocation, len(curves))}
	for i, c := range curves {
		pt, ok := c.At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
	}
	return plan, nil
}
