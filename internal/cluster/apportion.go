package cluster

import (
	"fmt"
	"math"
	"slices"

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

// dpLayer is the forward apportioning recurrence, the only copy outside
// the tests: one member's layer over budget levels [lo, hi), chained off
// the previous member's layer prev (indexed by absolute level). Point k
// costs cost[k] grid steps and yields perf[k]; a level takes the first
// best of the points before the first it cannot afford. layer and cho
// are windows whose element 0 is level lo. A member with no points
// spends nothing: its layer is prev's.
//
// sat is the level at which every member up to this one is saturated
// (the summed largest costs). From there up prev is constant over the
// whole window and every point is affordable, so the value and the
// choice equal those at sat exactly: cells past max(sat, lo) are filled
// from the last computed one instead of recomputed. Callers pass only
// levels their read-out can reach (the cone a backtrack from the read
// level can arrive in), so what is computed runs the same arithmetic on
// the same operands as a sweep of the full table would.
//
// The computed span [lo, end) is cut in three. Head levels that cannot
// yet afford the dearest point, and a tail shorter than dpBlock, run
// dpCells; the interior between them, where every level weighs every
// point, runs dpBlocks when there is one — the same adds and the same
// strict compares in the same point order, dpBlock levels at a time —
// so which of the two computed a cell cannot be told from the cell.
func dpLayer[C uint16 | int32](prev []float64, cost []int, perf []float64, lo, hi, sat int, layer []float64, cho []C) {
	if lo >= hi {
		return
	}
	if len(cost) == 0 {
		copy(layer[:hi-lo], prev[lo:hi])
		clear(cho[:hi-lo])
		return
	}
	end := min(hi, max(sat, lo)+1)
	perf = perf[:len(cost)]
	from := lo
	if c16, ok := any(cho).([]uint16); ok && dpBlocks != nil {
		top := cost[len(cost)-1]
		first := max(lo, top)
		// dpBlocks reads a level's affordable points off the last cost
		// alone, so the table must start at no less than 0 and never
		// step down.
		if n := (end - first) &^ (dpBlock - 1); n > 0 && cost[0] >= 0 && slices.IsSorted(cost) {
			dpCells(prev, cost, perf, lo, first, layer, cho)
			// The slice expressions are the kernel's bounds checks: it
			// reads prev[first-top, first+n) and writes n cells of each
			// window.
			w := first - lo
			dpBlocks(prev[first-top:first+n], cost, perf, layer[w:w+n], c16[w:w+n])
			from = first + n
		}
	}
	dpCells(prev, cost, perf, from, end, layer[from-lo:], cho[from-lo:])
	v, k := layer[end-1-lo], cho[end-1-lo]
	for l := end - lo; l < hi-lo; l++ {
		layer[l], cho[l] = v, k
	}
}

// dpCells is dpLayer's recurrence one level at a time over levels
// [lo, hi), layer and cho being windows whose element 0 is level lo: the
// portable path, and the reference dpBlocks is held to.
func dpCells[C uint16 | int32](prev []float64, cost []int, perf []float64, lo, hi int, layer []float64, cho []C) {
	for l := lo; l < hi; l++ {
		w := prev[:l+1]
		bestV, bestK := math.Inf(-1), 0
		for k, c := range cost {
			// One test for "cannot afford point k" and for the index.
			j := uint(l - c)
			if j >= uint(len(w)) {
				break
			}
			if v := w[j] + perf[k]; v > bestV {
				bestV, bestK = v, k
			}
		}
		layer[l-lo] = bestV
		cho[l-lo] = C(bestK)
	}
}

// dpBlock is how many consecutive levels dpBlocks computes at a time.
const dpBlock = 16

// dpBlocks, where the build and the CPU have one, is dpCells over
// len(layer) levels — a multiple of dpBlock — that all afford every
// point: prev holds cost[len(cost)-1] cells of history and then the
// previous layer at those levels, cost ascends from at least 0 and
// perf, layer and cho are exact-length windows. It is set once, at
// package init, and nil means every cell takes dpCells.
var dpBlocks func(prev []float64, cost []int, perf, layer []float64, cho []uint16)

// coneLos returns, for a budget read at level top, the lowest level of
// each member's layer a backtrack from top can arrive at — top less the
// most the members after it can spend (spans), floored at 0 — and the
// number of cells the windows [los[i], top] hold between them.
func coneLos(spans []int, top int) (los []int, cells int) {
	los = make([]int, len(spans))
	reach := top
	for i := len(spans) - 1; i >= 0; i-- {
		los[i] = max(0, reach)
		cells += top + 1 - los[i]
		reach -= spans[i]
	}
	return los, cells
}

// unitCosts returns the cost table of a curve sampled on the DP grid:
// point k is k steps above the floor.
func unitCosts(n int) []int {
	unit := make([]int, n)
	for k := range unit {
		unit[k] = k
	}
	return unit
}

// ApportionCurves runs the Utility(Ours) apportioning DP over a set of
// cap-utility curves: it splits clusterCapW across the curves' servers
// to maximize summed performance and returns the chosen per-server
// budgets alongside the performance and grid draw those choices
// deliver. The cap is quantized to the curve grid (ServerCapStepW) and
// every server is owed at least floorW (its idle floor) before the DP
// distributes the spare watts; curve point k is priced at k steps above
// the floor, exactly as the curves are sampled. A server with an empty
// curve is granted floorW and adds nothing to either sum.
//
// This one function is shared by the in-process evaluator and the
// networked coordinator, which is what makes the control plane's budget
// decisions bit-identical to the simulation's: same curves in, same
// budgets out.
func ApportionCurves(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	n := len(curves)
	budgets = make([]float64, n)
	if n == 0 {
		return budgets, 0, 0
	}
	capQ := math.Floor(clusterCapW/serverCapStepW) * serverCapStepW
	if capQ < floorW*float64(n) {
		// Not even the idle floors fit; the fleet draws what it may.
		per := capQ / float64(n)
		for i := range budgets {
			budgets[i] = per
		}
		return budgets, 0, capQ
	}
	spare := capQ - floorW*float64(n)
	levels := int(spare/serverCapStepW) + 1
	for _, c := range curves {
		if len(c) > maxCurvePoints {
			return apportionCone[int32](floorW, curves, levels, budgets)
		}
	}
	return apportionCone[uint16](floorW, curves, levels, budgets)
}

// apportionCone is ApportionCurves' DP over the budget above the idle
// floors, in curve-index units (curve point k costs k*serverCapStepW
// above the floor), with choices as wide as the longest curve needs.
// The budget is read at the top level only, so member i's layer is
// needed from as far below the top as the members after it can spend:
// los[i]. A member with an empty curve is owed its floor and no more.
func apportionCone[C uint16 | int32](floorW float64, curves [][]CapPoint, levels int, budgets []float64) (_ []float64, perf, gridW float64) {
	n := len(curves)
	spans, longest := make([]int, n), 0
	for i, c := range curves {
		spans[i] = curveSpan(c)
		longest = max(longest, len(c))
	}
	los, cells := coneLos(spans, levels-1)
	best, next := make([]float64, levels), make([]float64, levels)
	// choice holds member i's curve index per level of [los[i], levels),
	// the members' windows back to back.
	choice := make([]C, cells)
	unit, pf := unitCosts(longest), make([]float64, longest)
	off, sat := 0, 0
	for i, c := range curves {
		for k := range c {
			pf[k] = c[k].Perf
		}
		sat += spans[i]
		lo := los[i]
		dpLayer(best, unit[:len(c)], pf, lo, levels, sat, next[lo:], choice[off:off+levels-lo])
		off += levels - lo
		best, next = next, best
	}
	l := levels - 1
	for i := n - 1; i >= 0; i-- {
		off -= levels - los[i]
		if len(curves[i]) == 0 {
			budgets[i] = floorW
			continue
		}
		k := int(choice[off+l-los[i]])
		budgets[i] = curves[i][k].CapW
		perf += curves[i][k].Perf
		gridW += curves[i][k].GridW
		l -= k
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
