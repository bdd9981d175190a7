package cluster

import (
	"fmt"
	"math"

	"powerstruggle/internal/knapsack"
	"powerstruggle/internal/policy"
)

// UtilityOurs is the extension the paper's conclusion points at
// ("integration with cluster/datacenter level scheduling"): instead of
// splitting the cluster cap evenly, the cluster manager apportions it
// across servers by the marginal utility of each watt — the paper's R1
// applied one level up the power hierarchy — with App+Res+ESD-Aware
// mediating inside each server. Under deep shaving it concentrates
// power on fewer servers (amortizing their P_idle + P_cm) without any
// migration, capping the rest at their idle floor.
const UtilityOurs Strategy = ConsolidateMigrate + 1

// serverCapStepW is the grid on which per-server cap-utility curves are
// sampled and the cluster DP runs.
const serverCapStepW = 2.0

// ServerCapStepW exposes the DP's cap-sampling grid to external
// apportioners (the networked control plane quantizes the same way so
// its budget decisions stay bit-identical to the simulation's).
const ServerCapStepW = serverCapStepW

// CapPoint is one sample of a server's cap-utility curve: the
// performance and grid draw the server delivers when capped at CapW.
// The control plane ships these curves over the wire, so the fields
// carry stable JSON names.
type CapPoint struct {
	CapW  float64 `json:"capW"`
	Perf  float64 `json:"perf"`
	GridW float64 `json:"gridW"`
}

// ServerCapCurve samples server i's performance as a function of its
// cap, from the idle floor (nothing can cap below it without shutting
// the server down) to the nameplate. Safe for concurrent use; the
// underlying plans are memoized across callers.
func (e *Evaluator) ServerCapCurve(i int) ([]CapPoint, error) {
	if i < 0 || i >= len(e.cfg.Mixes) {
		return nil, fmt.Errorf("cluster: server %d of %d", i, len(e.cfg.Mixes))
	}
	mix := e.cfg.Mixes[i]
	var out []CapPoint
	nameplate := e.cfg.HW.MaxServerWatts()
	for cap := e.cfg.HW.PIdleWatts; cap <= nameplate+serverCapStepW; cap += serverCapStepW {
		p, err := e.planServer(mix, policy.AppResESDAware, math.Min(cap, nameplate), e.cfg.hasBattery(i))
		if err != nil {
			return nil, err
		}
		out = append(out, CapPoint{CapW: math.Min(cap, nameplate), Perf: p.perf, GridW: p.gridW})
	}
	return out, nil
}

// curveSpan is the most grid steps a curve can take above its first
// point: one per sample past the floor.
func curveSpan(c []CapPoint) int {
	if len(c) == 0 {
		return 0
	}
	return len(c) - 1
}

// ApportionCurves runs the Utility(Ours) apportioning DP over a set of
// cap-utility curves: it splits clusterCapW across the curves' servers
// to maximize summed performance and returns the chosen per-server
// budgets alongside the performance and grid draw those choices
// deliver. Every server is owed at least floorW (its idle floor) before
// the DP distributes the spare watts in whole steps of the curve grid
// (ServerCapStepW); curve point k is priced at k steps above the floor,
// exactly as the curves are sampled. A server with an empty
// curve is granted floorW and adds nothing to either sum.
//
// This one function is shared by the in-process evaluator and the
// networked coordinator, which is what makes the control plane's budget
// decisions bit-identical to the simulation's: same curves in, same
// budgets out.
func ApportionCurves(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	budgets, gridW, levels := floorsFirst(clusterCapW, floorW, len(curves))
	if levels == 0 {
		return budgets, 0, gridW
	}
	for _, c := range curves {
		if len(c) > maxCurvePoints {
			return apportionCone[int32](floorW, curves, levels, budgets)
		}
	}
	return apportionCone[uint16](floorW, curves, levels, budgets)
}

// floorsFirst owes each of n servers floorW before any DP runs and
// counts the whole grid steps left above the floors. It returns the
// budget vector and that number of spare levels, level l being the
// floors plus l steps — the watts a rollup prices its point l at, even
// when the floors' sum is off the grid. With no servers, or when not
// even the floors fit, it returns 0 levels and the whole answer: an
// even share of the cap quantized to the grid, which is then the grid
// draw.
func floorsFirst(clusterCapW, floorW float64, n int) (budgets []float64, gridW float64, levels int) {
	budgets = make([]float64, n)
	if n == 0 {
		return budgets, 0, 0
	}
	floors := floorW * float64(n)
	if clusterCapW < floors {
		// Not even the idle floors fit; the fleet draws what it may.
		capQ := math.Floor(clusterCapW/serverCapStepW) * serverCapStepW
		per := capQ / float64(n)
		for i := range budgets {
			budgets[i] = per
		}
		return budgets, capQ, 0
	}
	return budgets, 0, int((clusterCapW-floors)/serverCapStepW) + 1
}

// apportionCone is ApportionCurves' DP over the budget above the idle
// floors, in curve-index units (curve point k costs k*serverCapStepW
// above the floor), with choices as wide as the longest curve needs. The
// budget is read at the top level only, so each member's layer is needed
// over just the cone a backtrack from there can reach. A member with an
// empty curve is owed its floor and no more.
func apportionCone[C uint16 | int32](floorW float64, curves [][]CapPoint, levels int, budgets []float64) (_ []float64, perf, gridW float64) {
	longest := 0
	for _, c := range curves {
		longest = max(longest, len(c))
	}
	unit := knapsack.UnitCosts(longest)
	t, _ := knapsack.Solve[C](len(curves), levels, levels-1,
		func(i int) []int { return unit[:len(curves[i])] },
		func(i int, dst []float64) {
			for k := range dst {
				dst[k] = curves[i][k].Perf
			}
		})
	choice := make([]int, len(curves))
	t.Walk(levels-1, func(i, k int) { choice[i] = k })
	return spend(choice, floorW, curves, budgets)
}

// spend turns choice, the point each member takes (-1 for none), into
// budgets, and sums the chosen points' perf and grid draw, last member
// first. A member with an empty curve is owed floorW.
func spend(choice []int, floorW float64, curves [][]CapPoint, budgets []float64) (_ []float64, perf, gridW float64) {
	for i := len(curves) - 1; i >= 0; i-- {
		k := choice[i]
		if k < 0 {
			budgets[i] = floorW
			continue
		}
		budgets[i] = curves[i][k].CapW
		perf += curves[i][k].Perf
		gridW += curves[i][k].GridW
	}
	return budgets, perf, gridW
}

// utilityCache memoizes the DP on the quantized cluster cap.
type utilityCacheEntry struct {
	perf, grid float64
	budgets    []float64
}

// utilKey is the memoization key: the quantized cap plus the liveness
// mask in force — a dropout changes the apportioning even at the same
// cap.
type utilKey struct {
	level float64
	mask  string
}

// utilityCachedStep apportions one instant's cluster cap across the
// live servers with the DP, memoized on the quantized cluster cap (caps
// repeat across a shaving event) and the alive set. The returned budget
// vector spans the whole fleet, dropped servers at zero; callers must
// not mutate it.
func (e *Evaluator) utilityCachedStep(clusterCapW float64, alive []bool) (float64, float64, []float64, error) {
	key := utilKey{level: math.Floor(clusterCapW / serverCapStepW), mask: maskKey(alive)}
	if e.utilCache == nil {
		e.utilCache = make(map[utilKey]utilityCacheEntry)
	}
	if ent, ok := e.utilCache[key]; ok {
		return ent.perf, ent.grid, ent.budgets, nil
	}
	var idxs []int
	for i := range e.cfg.Mixes {
		if isAlive(alive, i) {
			idxs = append(idxs, i)
		}
	}
	budgets := make([]float64, len(e.cfg.Mixes))
	if len(idxs) == 0 {
		e.utilCache[key] = utilityCacheEntry{budgets: budgets}
		return 0, 0, budgets, nil
	}
	curves := make([][]CapPoint, len(idxs))
	for j, i := range idxs {
		c, err := e.ServerCapCurve(i)
		if err != nil {
			return 0, 0, nil, err
		}
		curves[j] = c
	}
	b, perf, grid := ApportionCurves(clusterCapW, e.cfg.HW.PIdleWatts, curves)
	for j, i := range idxs {
		budgets[i] = b[j]
	}
	e.utilCache[key] = utilityCacheEntry{perf: perf, grid: grid, budgets: budgets}
	return perf, grid, budgets, nil
}

// Apportion returns the per-server budget vector the strategy would
// grant at one cap point: clusterCapW split across the live servers,
// dropped servers at zero. This is the decision the networked control
// plane replicates over RPC; exposing it lets the parity tests compare
// the two watt for watt. Consolidation plans placement, not budgets,
// and is not apportionable.
func (e *Evaluator) Apportion(strat Strategy, clusterCapW float64, alive []bool) ([]float64, error) {
	switch strat {
	case EqualRAPL, EqualOurs:
		budgets := make([]float64, len(e.cfg.Mixes))
		n := e.aliveCount(alive)
		if n == 0 {
			return budgets, nil
		}
		per := clusterCapW / float64(n)
		for i := range e.cfg.Mixes {
			if isAlive(alive, i) {
				budgets[i] = per
			}
		}
		return budgets, nil
	case UtilityOurs:
		_, _, budgets, err := e.utilityCachedStep(clusterCapW, alive)
		if err != nil {
			return nil, err
		}
		return append([]float64(nil), budgets...), nil
	default:
		return nil, fmt.Errorf("cluster: strategy %v apportions no per-server budgets", strat)
	}
}
