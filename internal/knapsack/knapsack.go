// Package knapsack is the apportioning DP of both power tiers — the
// server's allocator across applications, the fleet's apportioners
// across servers and shards: a multiple-choice knapsack over a budget
// in levels, where member i takes one point k, costing cost_i[k] levels
// and worth perf_i[k], and
//
//	best_i[l] = max over affordable k of best_{i-1}[l-cost_i[k]] + perf_i[k]
//
// under a strict > over ascending k, so a tie keeps the earlier point.
package knapsack

import (
	"math"
	"slices"
)

// MaxPoints16 is the most points a uint16 choice table can index.
const MaxPoints16 = math.MaxUint16 + 1

// Layer is the forward recurrence, the only copy outside the tests: one
// member's layer over budget levels [lo, hi), chained off the previous
// member's layer prev (indexed by absolute level). Point k costs cost[k]
// levels and yields perf[k]; a level takes the first best of the points
// before the first it cannot afford. layer and cho are windows whose
// element 0 is level lo. A member with no points spends nothing: its
// layer is prev's.
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
// yet afford the dearest point, and a tail shorter than block, run
// cells; the interior between them, where every level weighs every
// point, runs blocks when there is one — the same adds and the same
// strict compares in the same point order, block levels at a time — so
// which of the two computed a cell cannot be told from the cell.
func Layer[C uint16 | int32](prev []float64, cost []int, perf []float64, lo, hi, sat int, layer []float64, cho []C) {
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
	if c16, ok := any(cho).([]uint16); ok && blocks != nil {
		top := cost[len(cost)-1]
		first := max(lo, top)
		// blocks reads a level's affordable points off the last cost
		// alone, so the table must start at no less than 0 and never
		// step down.
		if n := (end - first) &^ (block - 1); n > 0 && cost[0] >= 0 && slices.IsSorted(cost) {
			cells(prev, cost, perf, lo, first, layer, cho)
			// The slice expressions are the kernel's bounds checks: it
			// reads prev[first-top, first+n) and writes n cells of each
			// window.
			w := first - lo
			blocks(prev[first-top:first+n], cost, perf, layer[w:w+n], c16[w:w+n])
			from = first + n
		}
	}
	cells(prev, cost, perf, from, end, layer[from-lo:], cho[from-lo:])
	v, k := layer[end-1-lo], cho[end-1-lo]
	for l := end - lo; l < hi-lo; l++ {
		layer[l], cho[l] = v, k
	}
}

// cells is Layer's recurrence one level at a time over levels [lo, hi),
// layer and cho being windows whose element 0 is level lo: the portable
// path, and the reference blocks is held to.
func cells[C uint16 | int32](prev []float64, cost []int, perf []float64, lo, hi int, layer []float64, cho []C) {
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

// Margin is cells at the one level l, which must be at least 0: the
// point k it chooses there, and the gap by which that point's sum beats
// the best sum of any other affordable point — the same adds, compared
// the same way, so k is the cell's choice and the chosen sum its value.
// A tie gives a gap of 0 (or -0), a level where only k is affordable
// +Inf. A NaN sum never wins the cell, but since nothing can be said of
// how it compares, any NaN among the sums makes the gap NaN, as does a
// chosen sum of -Inf; a NaN gap is greater than nothing.
func Margin(prev []float64, cost []int, perf []float64, l int) (k int, gap float64) {
	w := prev[:l+1]
	bestV, nextV, nan := math.Inf(-1), math.Inf(-1), false
	for p, c := range cost {
		j := uint(l - c)
		if j >= uint(len(w)) {
			break
		}
		v := w[j] + perf[p]
		switch {
		case v > bestV:
			bestV, nextV, k = v, bestV, p
		case v > nextV:
			nextV = v
		case v != v:
			nan = true
		}
	}
	if nan || math.IsInf(bestV, -1) {
		return k, math.NaN()
	}
	return k, bestV - nextV
}

// block is how many consecutive levels blocks computes at a time.
const block = 16

// blocks, where the build and the CPU have one, is cells over
// len(layer) levels — a multiple of block — that all afford every
// point: prev holds cost[len(cost)-1] cells of history and then the
// previous layer at those levels, cost ascends from at least 0 and
// perf, layer and cho are exact-length windows. It is set once, at
// package init, and nil means every cell takes cells.
var blocks func(prev []float64, cost []int, perf, layer []float64, cho []uint16)

// UnitCosts returns the cost table of points one level apart: point k
// costs k.
func UnitCosts(n int) []int {
	unit := make([]int, n)
	for k := range unit {
		unit[k] = k
	}
	return unit
}

// Member is one member's row of a solved table: its point k costs
// Cost[k] levels, and Cho[l-Lo] is the point it takes when it and the
// members before it share level l, over the levels the table serves.
type Member[C uint16 | int32] struct {
	Cost []int
	Cho  []C
	Lo   int
}

// Table is a solved forward table, member 0 first.
type Table[C uint16 | int32] []Member[C]

// span is the most a member with cost table cost can spend.
func span(cost []int) int {
	s := 0
	for _, c := range cost {
		s = max(s, c)
	}
	return s
}

// Solve chains n members' layers over levels [0, levels), member 0 off a
// layer of zeros, computing and keeping each member's cells only over the
// cone a read in [readLo, levels) can backtrack into: from readLo less
// the most the members after it can spend, floored at 0. cost(i) returns
// member i's cost table — ascending, from at least 0 — and is called
// once per member before any layer is chained; perf(i, dst) writes its
// points' values into dst, as long as that table. Solve returns the
// table and the last member's layer, indexed by level.
func Solve[C uint16 | int32](n, levels, readLo int, cost func(i int) []int, perf func(i int, dst []float64)) (Table[C], []float64) {
	t := make(Table[C], n)
	after, longest, window := 0, 0, 0
	for i := n - 1; i >= 0; i-- {
		t[i].Cost = cost(i)
		t[i].Lo = max(0, readLo-after)
		window += levels - t[i].Lo
		after += span(t[i].Cost)
		longest = max(longest, len(t[i].Cost))
	}
	slab, pf := make([]float64, 2*levels), make([]float64, longest)
	best, next := slab[:levels], slab[levels:]
	cho := make([]C, window)
	sat := 0
	for i := range t {
		m := &t[i]
		w := levels - m.Lo
		m.Cho, cho = cho[:w:w], cho[w:]
		perf(i, pf[:len(m.Cost)])
		sat += span(m.Cost)
		Layer(best, m.Cost, pf, m.Lo, levels, sat, next[m.Lo:], m.Cho)
		best, next = next, best
	}
	return t, best
}

// Walk backtracks a read at level l, last member first: member i takes
// the point k its choices hold at the level left to it, reported as
// take(i, k), and leaves the members before it that level less the
// point's cost. A member with no points spends nothing and takes k = -1.
func (t Table[C]) Walk(l int, take func(i, k int)) {
	for i := len(t) - 1; i >= 0; i-- {
		k := -1
		if m := &t[i]; len(m.Cost) > 0 {
			k = int(m.Cho[l-m.Lo])
			l -= m.Cost[k]
		}
		take(i, k)
	}
}
