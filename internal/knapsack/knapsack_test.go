package knapsack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

const guard = 40

// awkward are the values the vector compare-and-blend must treat as
// "if v > bestV" does: ties, signed zeros, infinities and NaN.
var awkward = []float64{0, math.Copysign(0, -1), math.Inf(-1), math.NaN(), math.Inf(1), 0.125, -0.125}

func value(rng *rand.Rand) float64 {
	if rng.Intn(6) == 0 {
		return awkward[rng.Intn(len(awkward))]
	}
	// Eighths in a narrow range: sums tie often, at several points.
	return float64(rng.Intn(9)-4) * 0.125
}

// costTable draws a cost table of n points: unit steps, or priced —
// ascending with repeats and jumps, sometimes starting above 0.
func costTable(rng *rand.Rand, n int, priced bool) []int {
	cost := UnitCosts(n)
	if priced {
		c := rng.Intn(2) * rng.Intn(3)
		for k := range cost {
			cost[k] = c
			c += rng.Intn(4) * rng.Intn(2)
		}
	}
	return cost
}

// guardedPrev draws a previous layer of n cells inside a slab whose
// cells on both sides of it are +Inf — they would win every comparison —
// so a read outside prev shows up as a wrong cell.
func guardedPrev(rng *rand.Rand, n int) []float64 {
	slab := make([]float64, n+2*guard)
	for i := range slab {
		slab[i] = math.Inf(1)
	}
	prev := slab[guard : guard+n : guard+n]
	for i := range prev {
		prev[i] = value(rng)
	}
	return prev
}

// windows returns layer and cho windows of n cells inside poisoned
// slabs, and a check that nothing but the windows was written.
func windows(n int) (layer []float64, cho []uint16, intact func() bool) {
	const poisonC = 0xABCD
	poisonV := math.Float64frombits(0x7ff8_dead_beef_0001)
	ls, cs := make([]float64, n+2*guard), make([]uint16, n+2*guard)
	for i := range ls {
		ls[i], cs[i] = poisonV, poisonC
	}
	return ls[guard : guard+n], cs[guard : guard+n], func() bool {
		for i := 0; i < guard; i++ {
			for _, j := range []int{i, guard + n + i} {
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
// and choice: first straight into blocks and cells over interiors of
// whole blocks, then through Layer with the kernel on and off over spans
// that have (or lack) a head, an interior, a tail and a fill.
func TestLayerVectorMatchesScalar(t *testing.T) {
	if blocks == nil {
		t.Skip("no vector kernel here (not amd64, or no AVX2 with OS-saved YMM state): every cell already takes the scalar loop")
	}
	rng := rand.New(rand.NewSource(19))
	pointCounts := []int{1, 2, 3, 7, 41, 64, 256, 300}
	spans := []int{0, 1, block - 1, block, block + 1, 3*block - 1, 4 * block, 37*block + 5}

	for round := 0; round < 400; round++ {
		np := pointCounts[rng.Intn(len(pointCounts))]
		cost := costTable(rng, np, rng.Intn(2) == 0)
		perf := make([]float64, np)
		for k := range perf {
			perf[k] = value(rng)
		}
		top := cost[np-1]
		n := block * (1 + rng.Intn(5)*rng.Intn(8))
		prev := guardedPrev(rng, top+n)
		what := fmt.Sprintf("blocks round %d: %d points to cost %d, %d levels", round, np, top, n)

		gotV, gotC, intact := windows(n)
		blocks(prev, cost, perf, gotV, gotC)
		if !intact() {
			t.Fatalf("%s: wrote outside its windows", what)
		}
		wantV, wantC := make([]float64, n), make([]uint16, n)
		cells(prev, cost, perf, top, top+n, wantV, wantC)
		sameCells(t, what, gotV, gotC, wantV, wantC)
	}

	for round := 0; round < 3000; round++ {
		np := pointCounts[rng.Intn(len(pointCounts))]
		cost, perf := costTable(rng, np, rng.Intn(2) == 0), make([]float64, np+rng.Intn(3))
		if rng.Intn(12) == 0 && np > 2 {
			// A table that steps down is the scalar loop's alone.
			cost[np/2], cost[np/2+1] = cost[np/2+1]+1, cost[np/2]
		}
		for k := range perf {
			perf[k] = value(rng)
		}
		top := cost[np-1]
		// lo below, at and above the first level that affords every point,
		// block-aligned or not.
		lo := max(0, top+[]int{-top, -3, -1, 0, 1, 5, block, 100}[rng.Intn(8)])
		span := spans[rng.Intn(len(spans))]
		hi := lo + span
		// sat below, inside and above the span.
		sat := max(0, lo+[]int{-7, 0, span / 3, span - 1, span, span + 9}[rng.Intn(6)])
		// prev ends flush with the span, and starts flush with what a
		// level at top reads.
		prev := guardedPrev(rng, hi)
		what := fmt.Sprintf("Layer round %d: %d points to cost %d, levels [%d, %d) sat %d", round, np, top, lo, hi, sat)

		gotV, gotC, intact := windows(span)
		Layer(prev, cost, perf, lo, hi, sat, gotV, gotC)
		if !intact() {
			t.Fatalf("%s: wrote outside [lo, hi)", what)
		}
		wantV, wantC := make([]float64, span), make([]uint16, span)
		kernel := blocks
		blocks = nil
		Layer(prev, cost, perf, lo, hi, sat, wantV, wantC)
		blocks = kernel
		sameCells(t, what, gotV, gotC, wantV, wantC)
	}
}

// TestMarginMatchesCells holds Margin to cells at every level of random
// layers of awkward values: the same choice, and a gap of the chosen sum
// less the best other sum, each sum the same add cells makes — NaN if
// any sum is NaN or the chosen one is -Inf. Then the cases the
// certificate leans on, by hand, and Margin at saturated fill cells,
// which must read as the cell at the saturation level does.
func TestMarginMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 2000; round++ {
		np := 1 + rng.Intn([]int{3, 41, 120}[rng.Intn(3)])
		cost, perf := costTable(rng, np, rng.Intn(2) == 0), make([]float64, np)
		for k := range perf {
			perf[k] = value(rng)
		}
		levels := 1 + rng.Intn(cost[np-1]+8)
		prev := guardedPrev(rng, levels)
		v, c := make([]float64, 1), make([]uint16, 1)
		for l := 0; l < levels; l++ {
			cells(prev, cost, perf, l, l+1, v, c)
			k, gap := Margin(prev, cost, perf, l)
			if k != int(c[0]) {
				t.Fatalf("round %d level %d: Margin chose point %d, cells %d", round, l, k, c[0])
			}
			nextV, nan := math.Inf(-1), false
			for p, cp := range cost {
				if cp > l {
					break
				}
				s := prev[l-cp] + perf[p]
				nan = nan || math.IsNaN(s)
				if p != k && s > nextV {
					nextV = s
				}
			}
			want := v[0] - nextV
			if nan || math.IsInf(v[0], -1) {
				want = math.NaN()
			}
			if math.Float64bits(gap) != math.Float64bits(want) && !(math.IsNaN(gap) && math.IsNaN(want)) {
				t.Fatalf("round %d level %d: gap %v, want %v (chosen sum %v, best other %v)", round, l, gap, want, v[0], nextV)
			}
		}
	}

	negZero := math.Copysign(0, -1)
	unit := UnitCosts(3)
	for _, tc := range []struct {
		what       string
		prev, perf []float64
		l, k       int
		gap        float64
	}{
		{"clear winner", []float64{0, 0, 0}, []float64{0, 1, 3}, 2, 2, 2},
		{"tie keeps the earlier point, gap 0", []float64{0, 1, 2}, []float64{0, 1, 2}, 2, 0, 0},
		{"only point 0 affordable", []float64{5}, []float64{1, 9, 9}, 0, 0, math.Inf(1)},
		{"signed zeros tie", []float64{negZero, 0, 0}, []float64{negZero, negZero, 0}, 1, 0, 0},
		{"a NaN sum is passed over but voids the gap", []float64{0, 0, 0}, []float64{1, math.NaN(), 0}, 2, 0, math.NaN()},
		{"a -Inf runner-up is infinitely worse", []float64{math.Inf(-1), math.Inf(-1), 0}, []float64{0, 0, 0}, 2, 0, math.Inf(1)},
		{"nothing above -Inf", []float64{math.Inf(-1), math.Inf(-1)}, []float64{0, 0}, 1, 0, math.NaN()},
	} {
		k, gap := Margin(tc.prev, unit[:len(tc.perf)], tc.perf, tc.l)
		if k != tc.k || math.Float64bits(gap) != math.Float64bits(tc.gap) && !(math.IsNaN(gap) && math.IsNaN(tc.gap)) {
			t.Fatalf("%s: Margin = (%d, %v), want (%d, %v)", tc.what, k, gap, tc.k, tc.gap)
		}
	}

	// Saturated fill: prev is constant from level 9 up, the member spans
	// 4, so Layer fills every cell past 13 from the cell at 13 — and
	// Margin, run on the fill levels themselves, agrees with it.
	perf := []float64{0.5, 0.25, 1, 0.75, 1.25}
	prev := make([]float64, 40)
	for l := range prev {
		prev[l] = float64(min(l, 9)) * 0.375
	}
	const sat, hi = 13, 40
	layer, cho := make([]float64, hi), make([]uint16, hi)
	Layer(prev, UnitCosts(5), perf, 0, hi, sat, layer, cho)
	_, atSat := Margin(prev, UnitCosts(5), perf, sat)
	for l := sat; l < hi; l++ {
		k, gap := Margin(prev, UnitCosts(5), perf, l)
		if k != int(cho[l]) || gap != atSat {
			t.Fatalf("fill level %d: Margin = (%d, %v), cell chose %d and the saturation level's gap is %v", l, k, gap, cho[l], atSat)
		}
	}
}

// fullSweep is the recurrence with no cone, no fill and no kernel: every
// member's layer over every level, every affordable point weighed.
func fullSweep(costs [][]int, perfs [][]float64, levels int) (values [][]float64, choices [][]int) {
	best := make([]float64, levels)
	for i, cost := range costs {
		next, cho := make([]float64, levels), make([]int, levels)
		for l := range next {
			if len(cost) == 0 {
				next[l] = best[l]
				continue
			}
			bestV, bestK := math.Inf(-1), 0
			for k, c := range cost {
				if c > l {
					break
				}
				if v := best[l-c] + perfs[i][k]; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l], cho[l] = bestV, bestK
		}
		values, choices = append(values, next), append(choices, cho)
		best = next
	}
	return values, choices
}

// TestSolveMatchesFullSweep holds Solve — the cone, the saturation fill
// and the vector kernel together — to the full sweep, bit for bit, at
// every level a read may ask for: the picks Walk reports and the last
// member's value. Members are unit-cost and priced tables of awkward
// values, empty members are mixed in, choices are both widths, and the
// read ranges run from the top level alone to the full rectangle.
func TestSolveMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	reads := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		costs, perfs := make([][]int, n), make([][]float64, n)
		total := 0
		for i := range costs {
			if rng.Intn(8) == 0 {
				continue
			}
			np := 1 + rng.Intn([]int{3, 41, 120}[rng.Intn(3)])
			costs[i] = costTable(rng, np, rng.Intn(2) == 0)
			perfs[i] = make([]float64, np)
			for k := range perfs[i] {
				perfs[i][k] = value(rng)
			}
			total += costs[i][np-1]
		}
		levels := 1 + rng.Intn(total+2*block+1)
		readLo := []int{levels - 1, 0, rng.Intn(levels)}[rng.Intn(3)]
		values, choices := fullSweep(costs, perfs, levels)
		what := fmt.Sprintf("trial %d: %d members, %d levels, reads from %d", trial, n, levels, readLo)
		cost := func(i int) []int { return costs[i] }
		perf := func(i int, dst []float64) { copy(dst, perfs[i]) }
		if rng.Intn(2) == 0 {
			tab, last := Solve[uint16](n, levels, readLo, cost, perf)
			reads += checkSolve(t, what+" (uint16)", tab, last, values, choices, readLo)
		} else {
			tab, last := Solve[int32](n, levels, readLo, cost, perf)
			reads += checkSolve(t, what+" (int32)", tab, last, values, choices, readLo)
		}
	}
	t.Logf("%d read-outs bit-equal", reads)
}

// checkSolve compares every read in [readLo, levels) that has a plan and
// returns how many it walked.
func checkSolve[C uint16 | int32](t *testing.T, what string, tab Table[C], last []float64, values [][]float64, choices [][]int, readLo int) (reads int) {
	t.Helper()
	n, levels := len(values), len(values[0])
	for top := readLo; top < levels; top++ {
		if math.Float64bits(last[top]) != math.Float64bits(values[n-1][top]) {
			t.Fatalf("%s: last layer at %d is %v, full sweep %v", what, top, last[top], values[n-1][top])
		}
		// The full sweep's walk; a level where some member on the way can
		// afford no point has no plan to read.
		want, l := make([]int, n), top
		for i := n - 1; i >= 0 && l >= 0; i-- {
			want[i] = -1
			if cost := tab[i].Cost; len(cost) > 0 {
				want[i] = choices[i][l]
				l -= cost[want[i]]
			}
		}
		if l < 0 {
			continue
		}
		tab.Walk(top, func(i, k int) {
			if k != want[i] {
				t.Fatalf("%s: read at %d, member %d takes point %d, full sweep %d", what, top, i, k, want[i])
			}
		})
		reads++
	}
	return reads
}

// BenchmarkLayer is the kernel's own cell: one layer of 2 400 interior
// levels (every point affordable, no fill) through Layer with the vector
// kernel on and off, at flat-learn-128's table (41 unit-cost points) and
// tree-1k-8's (256 priced points). ns/cell is per level.
func BenchmarkLayer(b *testing.B) {
	const interior = 2400
	kernel := blocks
	defer func() { blocks = kernel }()
	for _, path := range []string{"scalar", "vector"} {
		for _, table := range []struct {
			name   string
			points int
			priced bool
		}{{"41-unit", 41, false}, {"256-priced", 256, true}} {
			b.Run(path+"/"+table.name, func(b *testing.B) {
				blocks = kernel
				if path == "scalar" {
					blocks = nil
				} else if kernel == nil {
					b.Skip("no vector kernel here")
				}
				rng := rand.New(rand.NewSource(2))
				cost := UnitCosts(table.points)
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
					Layer(prev, cost, perf, lo, lo+interior, lo+interior, layer, cho)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/interior, "ns/cell")
			})
		}
	}
}
