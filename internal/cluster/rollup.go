package cluster

import (
	"math"

	"powerstruggle/internal/knapsack"
)

// This file is the hierarchical tier of the Utility(Ours) apportioning
// machinery: per-shard curve rollups, the cluster-level DP that splits
// the cap across shards, and the headroom rebalancer that moves unused
// watts between shards — CloudPowerCap's cluster-wide budget
// redistribution (PAPERS.md) expressed over the same cap-utility
// curves ApportionCurves consumes, so every tier of the budget tree
// prices watts identically.

// DefaultShardLevels bounds the grid ApportionShards runs on: it
// coarsens its grid to at most this many levels, so its per-call cost
// stays O(shards × levels × curve points), at some loss of the split's
// perf (TestShardSplitMatchesFlatDP shows one). The global apportioner
// no longer calls either: it keeps an Apportioner on the 2 W grid and
// reads the cap's level out of it (Apportioner.Shards). Both remain as
// the coarse split the benchmark's shadow row times, until that row is
// rewritten (ROADMAP item 5).
const DefaultShardLevels = 2048

// RollupCurves aggregates a shard's member cap-utility curves into one
// shard-level curve, unthinned: Apportioner.Rollup over a cold table.
// A coordinator that rolls up every interval keeps an Apportioner and
// calls its Rollup instead, which redoes only what changed.
func RollupCurves(floorW float64, curves [][]CapPoint) []CapPoint {
	return new(Apportioner).Rollup(floorW, curves, 0)
}

// DownsampleCurve thins a curve to at most maxPoints samples, always
// keeping the first and last points so the floor and the saturation
// cap survive. Budgets chosen off a thinned curve remain achievable —
// every surviving point is a real (cap, perf) sample — the rollup just
// loses intermediate resolution, which bounds the trunk payload.
func DownsampleCurve(curve []CapPoint, maxPoints int) []CapPoint {
	if maxPoints < 2 || len(curve) <= maxPoints {
		return curve
	}
	out := make([]CapPoint, 0, maxPoints)
	last := len(curve) - 1
	for i := 0; i < maxPoints-1; i++ {
		out = append(out, curve[i*last/(maxPoints-1)])
	}
	return append(out, curve[last])
}

// ShardCurve is one shard's aggregate offer to the cluster-level
// apportioner: the minimum watts it must receive, and its rolled-up
// cap-utility curve (empty when its members report no curves — the
// shard then takes the documented even-share fallback).
type ShardCurve struct {
	// FloorW is the shard's idle-floor sum. With a non-empty curve the
	// first point's CapW is authoritative; FloorW covers the curveless
	// fallback.
	FloorW float64
	Points []CapPoint
}

// costSteps quantizes a watt delta up to whole grid steps. Rounding up
// means the DP's accounting never undercounts real watts, so the sum
// of chosen budgets cannot exceed the cap through quantization alone.
func costSteps(deltaW, stepW float64) int {
	if deltaW <= 0 {
		return 0
	}
	return int(math.Ceil(deltaW/stepW - 1e-9))
}

// ApportionShards splits clusterCapW across shards to maximize summed
// performance: the multiple-choice knapsack over each shard's rollup,
// solved cold on a grid coarsened to at most maxLevels levels (0 takes
// DefaultShardLevels); Apportioner.Shards is the same split on the 2 W
// grid, with the table kept between calls. Shards with empty curves (or
// ones too long for the uint16 choice table, maxCurvePoints) take an
// even share of the cap,
// mirroring the flat coordinator's curveless-member fallback; the DP
// apportions the remainder across the curve-bearing shards, each owed
// at least its own floor (heterogeneous floors are fine here — every
// shard's curve already prices watts above its own first point).
//
// Guarantee: the returned budgets always sum to at most clusterCapW
// (costs are quantized upward, never down), which is the invariant the
// two-tier drills assert every interval.
func ApportionShards(clusterCapW float64, shards []ShardCurve, maxLevels int) (budgets []float64, perf float64) {
	budgets, curved, spare := floorShards(clusterCapW, shards, nil)
	if spare < 0 {
		return budgets, 0
	}
	if maxLevels <= 0 {
		maxLevels = DefaultShardLevels
	}
	points := 0
	for _, i := range curved {
		points += len(shards[i].Points)
	}
	stepW := serverCapStepW
	if int(spare/stepW)+1 > maxLevels {
		stepW = spare / float64(maxLevels-1)
	}
	levels := int(spare/stepW+1e-9) + 1
	// Price every shard's points once, back to back in cost: point k of
	// curved shard j costs its watts above the shard's floor in grid
	// steps. Curve caps are strictly increasing, so each shard's costs
	// are non-decreasing, as the DP wants them.
	cost := make([]int, 0, points)
	t, _ := knapsack.Solve[uint16](len(curved), levels, levels-1,
		func(j int) []int {
			from, pts := len(cost), shards[curved[j]].Points
			for k := range pts {
				cost = append(cost, costSteps(pts[k].CapW-pts[0].CapW, stepW))
			}
			return cost[from:len(cost):len(cost)]
		},
		func(j int, dst []float64) {
			for k, p := range shards[curved[j]].Points {
				dst[k] = p.Perf
			}
		})
	t.Walk(levels-1, func(j, k int) {
		p := shards[curved[j]].Points[k]
		budgets[curved[j]] = p.CapW
		perf += p.Perf
	})
	return budgets, perf
}

// Shards is ApportionShards on the 2 W grid, read out of the kept
// table: the same even shares, pro-rating and guarantee, and bit for
// bit the split a cold solve over every level up to the quantized spare
// watts chooses. Its members are the curve-bearing shards in order, each
// point priced at its watts above the shard's first point. A move of the
// cap alone only backtracks; a changed rollup rebuilds the layers from
// its position on, over the cone of the one level read: the spare
// watts', or the summed spans if lower, past which the split no longer
// changes. Rollup caps must be strictly increasing, as the wire
// enforces. The returned budgets are the call's only allocation.
func (a *Apportioner) Shards(clusterCapW float64, shards []ShardCurve) (budgets []float64, perf float64) {
	a.recomputed, a.fellBack = 0, false
	var spare float64
	budgets, a.curved, spare = floorShards(clusterCapW, shards, a.curved[:0])
	if spare < 0 {
		return budgets, 0
	}
	curves, top := a.shardPts[:0], 0
	for _, i := range a.curved {
		curves = append(curves, shards[i].Points)
		top += levelSpan(shards[i].Points, true)
	}
	a.shardPts = curves
	top = min(top, int(spare/serverCapStepW+1e-9))
	a.sync(0, true, curves, top, top, false)
	a.certify(top, false)
	for j := len(curves) - 1; j >= 0; j-- {
		p := curves[j][a.choice[j]]
		budgets[a.curved[j]] = p.CapW
		perf += p.Perf
	}
	return budgets, perf
}

// floorShards is the front half of every split of a cap across shards.
// Shards with empty curves, or ones too long for the uint16 choice table
// (maxCurvePoints), take an even share of clusterCapW; the others'
// indices are appended to curved, and each is owed its first point's
// CapW out of the rest, quantized down to the grid. It returns the spare
// watts above those floors, or -1 when no DP is left to run: no shard
// bears a curve, or not even their floors fit, and what there is has
// been pro-rated over them.
func floorShards(clusterCapW float64, shards []ShardCurve, curved []int) (budgets []float64, _ []int, spare float64) {
	n := len(shards)
	budgets = make([]float64, n)
	if n == 0 || clusterCapW <= 0 {
		return budgets, curved, -1
	}
	per := clusterCapW / float64(n)
	remainW := clusterCapW
	for i, s := range shards {
		if len(s.Points) == 0 || len(s.Points) > maxCurvePoints {
			budgets[i] = per
			remainW -= per
		} else {
			curved = append(curved, i)
		}
	}
	if len(curved) == 0 {
		return budgets, curved, -1
	}
	var baseSum float64
	for _, i := range curved {
		baseSum += shards[i].Points[0].CapW
	}
	capQ := math.Floor(remainW/serverCapStepW) * serverCapStepW
	if capQ < baseSum {
		// Not even the shard floors fit; pro-rate what there is.
		for _, i := range curved {
			if baseSum > 0 {
				budgets[i] = capQ * shards[i].Points[0].CapW / baseSum
			} else {
				budgets[i] = capQ / float64(len(curved))
			}
		}
		return budgets, curved, -1
	}
	return budgets, curved, capQ - baseSum
}

// RebalanceHeadroom moves unused headroom between shards: a shard
// whose budget exceeds both its measured draw and its estimated demand
// (with a guard fraction of slack) donates the excess, and shards
// whose demand exceeds their budget receive it in proportion to their
// shortfall. The transfer is conservative — donors are never cut below
// max(used, demand) × (1 + guardFrac), the total is preserved exactly
// (what moves out moves in), and a shard can never be both donor and
// receiver. Returns the adjusted budgets and the watts moved.
//
// Edge cases the tests pin down: an all-idle fleet (no shard wants
// more) moves nothing; a single shard holding the whole cap donates to
// starved siblings the moment they report demand; mismatched slice
// lengths move nothing (a malformed report must not shift watts).
func RebalanceHeadroom(budgets, usedW, demandW []float64, guardFrac float64) ([]float64, float64) {
	out := append([]float64(nil), budgets...)
	n := len(budgets)
	if len(usedW) != n || len(demandW) != n {
		return out, 0
	}
	if guardFrac < 0 {
		guardFrac = 0
	}
	surplus := make([]float64, n)
	need := make([]float64, n)
	var pool, needTotal float64
	for i := 0; i < n; i++ {
		keep := math.Max(usedW[i], demandW[i]) * (1 + guardFrac)
		if s := budgets[i] - keep; s > 0 {
			surplus[i] = s
			pool += s
		}
		if d := demandW[i] - budgets[i]; d > 0 {
			need[i] = d
			needTotal += d
		}
	}
	if pool <= 0 || needTotal <= 0 {
		return out, 0
	}
	moved := math.Min(pool, needTotal)
	for i := 0; i < n; i++ {
		if surplus[i] > 0 {
			out[i] -= moved * surplus[i] / pool
		}
		if need[i] > 0 {
			out[i] += moved * need[i] / needTotal
		}
	}
	return out, moved
}
