package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

const dpGuard = 40

// dpAwkward are the values the vector compare-and-blend must treat as
// "if v > bestV" does: ties, signed zeros, infinities and NaN.
var dpAwkward = []float64{0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.Inf(1), 0.125, -0.125}

func dpValue(rng *rand.Rand) float64 {
	if rng.Intn(6) == 0 {
		return dpAwkward[rng.Intn(len(dpAwkward))]
	}
	// Eighths in a narrow range: sums tie often, at several points.
	return float64(rng.Intn(9)-4) * 0.125
}

// dpCostTable draws a cost table of n points: unit steps, or priced —
// ascending with repeats and jumps, sometimes starting above 0.
func dpCostTable(rng *rand.Rand, n int, priced bool) []int {
	cost := unitCosts(n)
	if priced {
		c := rng.Intn(2) * rng.Intn(3)
		for k := range cost {
			cost[k] = c
			c += rng.Intn(4) * rng.Intn(2)
		}
	}
	return cost
}

// dpGuardedPrev draws a previous layer of n cells inside a slab whose
// cells on both sides of it are +Inf — they would win every comparison —
// so a read outside prev shows up as a wrong cell.
func dpGuardedPrev(rng *rand.Rand, n int) []float64 {
	slab := make([]float64, n+2*dpGuard)
	for i := range slab {
		slab[i] = math.Inf(1)
	}
	prev := slab[dpGuard : dpGuard+n : dpGuard+n]
	for i := range prev {
		prev[i] = dpValue(rng)
	}
	return prev
}

// dpWindows returns layer and cho windows of n cells inside poisoned
// slabs, and a check that nothing but the windows was written.
func dpWindows(n int) (layer []float64, cho []uint16, intact func() bool) {
	const poisonC = 0xABCD
	poisonV := math.Float64frombits(0x7ff8_dead_beef_0001)
	ls, cs := make([]float64, n+2*dpGuard), make([]uint16, n+2*dpGuard)
	for i := range ls {
		ls[i], cs[i] = poisonV, poisonC
	}
	return ls[dpGuard : dpGuard+n], cs[dpGuard : dpGuard+n], func() bool {
		for i := 0; i < dpGuard; i++ {
			for _, j := range []int{i, dpGuard + n + i} {
				if math.Float64bits(ls[j]) != math.Float64bits(poisonV) || cs[j] != poisonC {
					return false
				}
			}
		}
		return true
	}
}

func sameCells(t *testing.T, what string, gotV []float64, gotC []uint16, wantV []float64, wantC []uint16) {
	t.Helper()
	for i := range wantV {
		if math.Float64bits(gotV[i]) != math.Float64bits(wantV[i]) || gotC[i] != wantC[i] {
			t.Fatalf("%s: cell %d holds (%v %#x, point %d), scalar loop (%v %#x, point %d)", what, i,
				gotV[i], math.Float64bits(gotV[i]), gotC[i], wantV[i], math.Float64bits(wantV[i]), wantC[i])
		}
	}
}

// The vector kernel against the scalar loop, cell by cell in value bits
// and choice: first straight into dpBlocks and dpCells over interiors of
// whole blocks, then through dpLayer with the kernel on and off over
// spans that have (or lack) a head, an interior, a tail and a fill.
func TestDPLayerVectorMatchesScalar(t *testing.T) {
	if dpBlocks == nil {
		t.Skip("no vector kernel here (not amd64, or no AVX2 with OS-saved YMM state): every cell already takes the scalar loop")
	}
	rng := rand.New(rand.NewSource(19))
	pointCounts := []int{1, 2, 3, 7, 41, 64, 256, 300}
	spans := []int{0, 1, dpBlock - 1, dpBlock, dpBlock + 1, 3*dpBlock - 1, 4 * dpBlock, 37*dpBlock + 5}

	for round := 0; round < 400; round++ {
		np := pointCounts[rng.Intn(len(pointCounts))]
		cost := dpCostTable(rng, np, rng.Intn(2) == 0)
		perf := make([]float64, np)
		for k := range perf {
			perf[k] = dpValue(rng)
		}
		top := cost[np-1]
		n := dpBlock * (1 + rng.Intn(5)*rng.Intn(8))
		prev := dpGuardedPrev(rng, top+n)
		what := fmt.Sprintf("dpBlocks round %d: %d points to cost %d, %d levels", round, np, top, n)

		gotV, gotC, intact := dpWindows(n)
		dpBlocks(prev, cost, perf, gotV, gotC)
		if !intact() {
			t.Fatalf("%s: wrote outside its windows", what)
		}
		wantV, wantC := make([]float64, n), make([]uint16, n)
		dpCells(prev, cost, perf, top, top+n, wantV, wantC)
		sameCells(t, what, gotV, gotC, wantV, wantC)
	}

	for round := 0; round < 3000; round++ {
		np := pointCounts[rng.Intn(len(pointCounts))]
		cost, perf := dpCostTable(rng, np, rng.Intn(2) == 0), make([]float64, np+rng.Intn(3))
		if rng.Intn(12) == 0 && np > 2 {
			// A table that steps down is the scalar loop's alone.
			cost[np/2], cost[np/2+1] = cost[np/2+1]+1, cost[np/2]
		}
		for k := range perf {
			perf[k] = dpValue(rng)
		}
		top := cost[np-1]
		// lo below, at and above the first level that affords every point,
		// block-aligned or not.
		lo := max(0, top+[]int{-top, -3, -1, 0, 1, 5, dpBlock, 100}[rng.Intn(8)])
		span := spans[rng.Intn(len(spans))]
		hi := lo + span
		// sat below, inside and above the span.
		sat := max(0, lo+[]int{-7, 0, span / 3, span - 1, span, span + 9}[rng.Intn(6)])
		// prev ends flush with the span, and starts flush with what a
		// level at top reads.
		prev := dpGuardedPrev(rng, hi)
		what := fmt.Sprintf("dpLayer round %d: %d points to cost %d, levels [%d, %d) sat %d", round, np, top, lo, hi, sat)

		gotV, gotC, intact := dpWindows(span)
		dpLayer(prev, cost, perf, lo, hi, sat, gotV, gotC)
		if !intact() {
			t.Fatalf("%s: wrote outside [lo, hi)", what)
		}
		wantV, wantC := make([]float64, span), make([]uint16, span)
		kernel := dpBlocks
		dpBlocks = nil
		dpLayer(prev, cost, perf, lo, hi, sat, wantV, wantC)
		dpBlocks = kernel
		sameCells(t, what, gotV, gotC, wantV, wantC)
	}
}

// A member with an empty curve is owed its floor, takes no spare step
// and adds nothing: both DPs answer as the DP over the other members
// does with that floor set aside. At the parent both panicked in the
// backtrack.
func TestEmptyCurveIsOwedItsFloor(t *testing.T) {
	const floorW = 50.0
	rng := rand.New(rand.NewSource(7))
	c := lineCurve(floorW, 12, 0.01)
	for _, tc := range []struct {
		what   string
		curves [][]CapPoint
	}{
		{"middle", [][]CapPoint{c, {}, c}},
		{"first", [][]CapPoint{nil, c, wildCurve(rng, floorW)}},
		{"last", [][]CapPoint{wildCurve(rng, floorW), c, {}}},
		{"several", [][]CapPoint{{}, wildCurve(rng, floorW), {}, {}, c, wildCurve(rng, floorW), {}}},
		{"all", [][]CapPoint{{}, {}}},
	} {
		var rest [][]CapPoint
		for _, c := range tc.curves {
			if len(c) > 0 {
				rest = append(rest, c)
			}
		}
		var inc Apportioner
		for _, capW := range []float64{floorW*float64(len(tc.curves)) + 80, floorW * float64(len(tc.curves)), 1000, 200} {
			empties := float64(len(tc.curves) - len(rest))
			wantB, wantP, wantG := ApportionCurves(capW-floorW*empties, floorW, rest)
			for _, dp := range []struct {
				name string
				f    func(float64, float64, [][]CapPoint) ([]float64, float64, float64)
			}{{"ApportionCurves", ApportionCurves}, {"Apportioner", inc.Apportion}} {
				what := fmt.Sprintf("%s, empty curve %s, cap %v", dp.name, tc.what, capW)
				gotB, gotP, gotG := dp.f(capW, floorW, tc.curves)
				if capW < floorW*float64(len(tc.curves)) {
					// Below the floors no DP runs; nothing to compare.
					continue
				}
				var packed []float64
				for i, c := range tc.curves {
					if len(c) > 0 {
						packed = append(packed, gotB[i])
					} else if gotB[i] != floorW {
						t.Fatalf("%s: member %d granted %v, want its floor %v", what, i, gotB[i], floorW)
					}
				}
				sameApportion(t, what, packed, gotP, gotG, wantB, wantP, wantG)
			}
		}
	}
}

// BenchmarkDPLayer is the kernel's own cell: one layer of 2 400 interior
// levels (every point affordable, no fill) through dpLayer with the
// vector kernel on and off, at flat-learn-128's table (41 unit-cost
// points) and tree-1k-8's (256 priced points). ns/cell is per level.
func BenchmarkDPLayer(b *testing.B) {
	const interior = 2400
	kernel := dpBlocks
	defer func() { dpBlocks = kernel }()
	for _, path := range []string{"scalar", "vector"} {
		for _, table := range []struct {
			name   string
			points int
			priced bool
		}{{"41-unit", 41, false}, {"256-priced", 256, true}} {
			b.Run(path+"/"+table.name, func(b *testing.B) {
				dpBlocks = kernel
				if path == "scalar" {
					dpBlocks = nil
				} else if kernel == nil {
					b.Skip("no vector kernel here")
				}
				rng := rand.New(rand.NewSource(2))
				cost := unitCosts(table.points)
				if table.priced {
					for k := range cost {
						cost[k] = k * 7 / 2
					}
				}
				perf := make([]float64, table.points)
				for k := range perf {
					perf[k] = 1 - math.Exp(-float64(k)/40)
				}
				lo := cost[table.points-1]
				prev := make([]float64, lo+interior)
				for i := range prev {
					prev[i] = float64(i)*0.01 + rng.Float64()*0.001
				}
				layer, cho := make([]float64, interior), make([]uint16, interior)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dpLayer(prev, cost, perf, lo, lo+interior, lo+interior, layer, cho)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/interior, "ns/cell")
			})
		}
	}
}
