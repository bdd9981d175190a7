package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randCurve builds a plausible cap-utility curve: strictly increasing
// caps on the DP grid, non-decreasing perf, arbitrary grid draw.
func randCurve(rng *rand.Rand, floorW float64) []CapPoint {
	n := 1 + rng.Intn(40)
	out := make([]CapPoint, n)
	perf := rng.Float64() * 0.2
	for k := 0; k < n; k++ {
		perf += rng.Float64() * 0.3
		out[k] = CapPoint{
			CapW:  floorW + float64(k)*ServerCapStepW,
			Perf:  perf,
			GridW: floorW + rng.Float64()*float64(k)*ServerCapStepW,
		}
	}
	return out
}

// TestApportionerMatchesFullDP holds the incremental apportioner
// bit-identical to ApportionCurves through a randomized interval
// sequence: caps move every step, and a random subset of member curves
// (often none, sometimes all) changes between steps — the exact access
// pattern the coordinator generates once live daemons learn online.
func TestApportionerMatchesFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const floorW = 40.0
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		curves := make([][]CapPoint, n)
		for i := range curves {
			curves[i] = randCurve(rng, floorW)
		}
		var inc Apportioner
		for step := 0; step < 30; step++ {
			// Mutate a random subset: mostly nobody, sometimes a tail,
			// occasionally everyone (a membership churn analogue).
			switch rng.Intn(4) {
			case 1:
				i := rng.Intn(n)
				curves[i] = randCurve(rng, floorW)
			case 2:
				for i := rng.Intn(n); i < n; i++ {
					curves[i] = randCurve(rng, floorW)
				}
			}
			// Caps span from "floors don't fit" to generous.
			capW := floorW*float64(n)*0.5 + rng.Float64()*floorW*float64(n)*2.5
			wantB, wantP, wantG := ApportionCurves(capW, floorW, curves)
			gotB, gotP, gotG := inc.Apportion(capW, floorW, curves)
			if gotP != wantP || gotG != wantG {
				t.Fatalf("trial %d step %d: perf/grid (%v, %v), full DP (%v, %v)",
					trial, step, gotP, gotG, wantP, wantG)
			}
			for i := range wantB {
				if gotB[i] != wantB[i] {
					t.Fatalf("trial %d step %d: member %d budget %v, full DP %v",
						trial, step, i, gotB[i], wantB[i])
				}
			}
		}
	}
}

// TestApportionerIncrementalReuse pins the fast path's whole point:
// a cap-only change recomputes zero member layers, and k tail changes
// recompute exactly k.
func TestApportionerIncrementalReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const floorW, n = 40.0, 16
	curves := make([][]CapPoint, n)
	for i := range curves {
		curves[i] = randCurve(rng, floorW)
	}
	var inc Apportioner
	inc.Apportion(900, floorW, curves)
	if got := inc.LastRecomputed(); got != n {
		t.Fatalf("cold start recomputed %d layers, want %d", got, n)
	}
	// Cap moves alone: reconstruction only. A higher cap extends the
	// clean prefix's columns in place without counting as a rebuild.
	for _, capW := range []float64{700, 1100, 864, 1300} {
		inc.Apportion(capW, floorW, curves)
		if got := inc.LastRecomputed(); got != 0 {
			t.Fatalf("cap-only change to %g W recomputed %d layers, want 0", capW, got)
		}
	}
	// k changed tail members: exactly k layers rebuilt.
	for _, k := range []int{1, 3} {
		for i := n - k; i < n; i++ {
			curves[i] = randCurve(rng, floorW)
		}
		inc.Apportion(1000, floorW, curves)
		if got := inc.LastRecomputed(); got != k {
			t.Fatalf("%d tail changes recomputed %d layers, want %d", k, got, k)
		}
	}
	// And it all stayed bit-identical after the churn.
	wantB, _, _ := ApportionCurves(1000, floorW, curves)
	gotB, _, _ := inc.Apportion(1000, floorW, curves)
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("member %d budget %v, full DP %v", i, gotB[i], wantB[i])
		}
	}
}

// referenceRollupCurves is the two-slab forward rollup RollupCurves ran
// before it became a read-out of the Apportioner's table, retained here
// verbatim as the oracle the read-out is held to, bit for bit.
func referenceRollupCurves(floorW float64, curves [][]CapPoint) []CapPoint {
	n := len(curves)
	if n == 0 {
		return nil
	}
	levels := 1
	for _, c := range curves {
		if len(c) == 0 {
			return nil
		}
		levels += len(c) - 1
	}
	best := make([]float64, levels)
	grid := make([]float64, levels)
	for i := 0; i < n; i++ {
		next := make([]float64, levels)
		nextGrid := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestG := math.Inf(-1), 0.0
			kMax := l
			if kMax >= len(curves[i]) {
				kMax = len(curves[i]) - 1
			}
			for k := 0; k <= kMax; k++ {
				if v := best[l-k] + curves[i][k].Perf; v > bestV {
					bestV = v
					bestG = grid[l-k] + curves[i][k].GridW
				}
			}
			next[l], nextGrid[l] = bestV, bestG
		}
		best, grid = next, nextGrid
	}
	out := make([]CapPoint, levels)
	base := floorW * float64(n)
	for l := range out {
		out[l] = CapPoint{CapW: base + float64(l)*serverCapStepW, Perf: best[l], GridW: grid[l]}
	}
	return out
}

// stepCurve is a non-concave curve: flat at the floor until the P_cm
// step is paid, then rising — the shape that makes greedy apportioning
// wrong and DP tie-breaks matter.
func stepCurve(rng *rand.Rand, floorW float64) []CapPoint {
	n := 2 + rng.Intn(20)
	knee := 1 + rng.Intn(n-1)
	out := make([]CapPoint, n)
	slope := 0.05 + rng.Float64()*0.3
	for k := range out {
		var perf float64
		if k >= knee {
			perf = 0.5 + slope*float64(k-knee)
		}
		out[k] = CapPoint{
			CapW:  floorW + float64(k)*ServerCapStepW,
			Perf:  perf,
			GridW: floorW + 0.7*float64(k)*ServerCapStepW,
		}
	}
	return out
}

func sameCurveBits(t *testing.T, what string, got, want []CapPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference has %d", what, len(got), len(want))
	}
	for l := range want {
		if got[l] != want[l] {
			t.Fatalf("%s: point %d is %+v, reference %+v", what, l, got[l], want[l])
		}
	}
}

// TestApportionerRollupMatchesReference drives one Apportioner through
// the access pattern a shard coordinator generates — apportion at a
// moving cap, then roll up — under every kind of change the cache has
// to notice: k dirty curves, floor changes, members joining and
// leaving, thinning bounds moving. Both readers must agree with their
// from-scratch oracles bit for bit at every step.
func TestApportionerRollupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	gen := func(floorW float64) []CapPoint {
		if rng.Intn(3) == 0 {
			return stepCurve(rng, floorW)
		}
		return randCurve(rng, floorW)
	}
	for trial := 0; trial < 25; trial++ {
		floorW := 40.0
		n := 1 + rng.Intn(14)
		curves := make([][]CapPoint, n)
		for i := range curves {
			curves[i] = gen(floorW)
		}
		maxPoints := []int{0, 8, 256}[rng.Intn(3)]
		var inc Apportioner
		for step := 0; step < 40; step++ {
			switch rng.Intn(9) {
			case 1: // one dirty member
				curves[rng.Intn(len(curves))] = gen(floorW)
			case 2: // a dirty tail
				for i := rng.Intn(len(curves)); i < len(curves); i++ {
					curves[i] = gen(floorW)
				}
			case 3: // k scattered dirty members
				for k := 1 + rng.Intn(3); k > 0; k-- {
					curves[rng.Intn(len(curves))] = gen(floorW)
				}
			case 4: // floor change reprices everything
				floorW = 30 + float64(rng.Intn(8))*2
				for i := range curves {
					curves[i] = gen(floorW)
				}
			case 5: // a member joins
				curves = append(curves, gen(floorW))
			case 6: // a member leaves, from anywhere
				if len(curves) > 1 {
					i := rng.Intn(len(curves))
					curves = append(curves[:i:i], curves[i+1:]...)
				}
			case 7: // the thinning bound moves under an unchanged table
				maxPoints = []int{0, 8, 256}[rng.Intn(3)]
			}
			n := len(curves)
			// Interleave the readers in both orders, with caps from
			// "floors don't fit" through "everyone saturated and more".
			order := rng.Intn(3)
			if order != 0 {
				got := inc.Rollup(floorW, curves, maxPoints)
				sameCurveBits(t, "rollup before apportion", got,
					DownsampleCurve(referenceRollupCurves(floorW, curves), maxPoints))
			}
			capW := floorW*float64(n)*0.5 + rng.Float64()*floorW*float64(n)*2.5
			wantB, wantP, wantG := ApportionCurves(capW, floorW, curves)
			gotB, gotP, gotG := inc.Apportion(capW, floorW, curves)
			if gotP != wantP || gotG != wantG {
				t.Fatalf("trial %d step %d: perf/grid (%v, %v), full DP (%v, %v)", trial, step, gotP, gotG, wantP, wantG)
			}
			for i := range wantB {
				if gotB[i] != wantB[i] {
					t.Fatalf("trial %d step %d: member %d budget %v, full DP %v", trial, step, i, gotB[i], wantB[i])
				}
			}
			if order != 1 {
				got := inc.Rollup(floorW, curves, maxPoints)
				if order == 2 && inc.LastRecomputed() != 0 {
					t.Fatalf("trial %d step %d: rollup right after an apportion over the same curves rebuilt %d layers",
						trial, step, inc.LastRecomputed())
				}
				sameCurveBits(t, "rollup after apportion", got,
					DownsampleCurve(referenceRollupCurves(floorW, curves), maxPoints))
			}
		}
	}
	// The package-level function is the same read-out over a cold table.
	curves := [][]CapPoint{stepCurve(rng, 40), randCurve(rng, 40), stepCurve(rng, 40)}
	sameCurveBits(t, "RollupCurves", RollupCurves(40, curves), referenceRollupCurves(40, curves))
}

// TestApportionerRollupMemoized pins the steady state: with curves,
// floor and thinning bound unchanged, Rollup hands back the same slice
// with no layer work and no allocation, cap moves in between included;
// any change replaces the slice instead of writing into it.
func TestApportionerRollupMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const floorW, n = 40.0, 24
	curves := make([][]CapPoint, n)
	for i := range curves {
		curves[i] = randCurve(rng, floorW)
	}
	var inc Apportioner
	inc.Apportion(1200, floorW, curves)
	first := inc.Rollup(floorW, curves, 64)
	if len(first) != 64 {
		t.Fatalf("rollup thinned to %d points, want 64", len(first))
	}
	// Same values through fresh backing arrays, as a decoded scrape
	// delivers them: the detector compares contents, not pointers.
	fresh := make([][]CapPoint, n)
	for i := range curves {
		fresh[i] = append([]CapPoint(nil), curves[i]...)
	}
	for _, capW := range []float64{1100, 1500, 990} {
		inc.Apportion(capW, floorW, fresh)
		again := inc.Rollup(floorW, fresh, 64)
		if &again[0] != &first[0] || inc.LastRecomputed() != 0 {
			t.Fatalf("unchanged curves at cap %g: new slice %v, %d layers rebuilt", capW, &again[0] != &first[0], inc.LastRecomputed())
		}
	}
	if avg := testing.AllocsPerRun(20, func() { inc.Rollup(floorW, fresh, 64) }); avg != 0 {
		t.Fatalf("memoized rollup allocates %.1f times per call, want 0", avg)
	}
	kept := append([]CapPoint(nil), first...)
	fresh[n-1] = randCurve(rng, floorW)
	changed := inc.Rollup(floorW, fresh, 64)
	if inc.LastRecomputed() != 1 {
		t.Fatalf("one changed tail member rebuilt %d layers, want 1", inc.LastRecomputed())
	}
	if &changed[0] == &first[0] {
		t.Fatal("a changed curve wrote the new rollup into the slice handed out before")
	}
	sameCurveBits(t, "rollup handed out before the change", first, kept)
	sameCurveBits(t, "rollup after the change", changed, DownsampleCurve(referenceRollupCurves(floorW, fresh), 64))
}

// TestApportionerRebuildsOnlyNeededLevels pins what a layer holds: one
// span [lo, hi) of cells some read-out could reach, nothing more. A
// dirty layer is rebuilt over exactly the cone of the call at hand — not
// over [0, levels), and not over the widest span an earlier call ran
// with (an uncapped warm-up used to make every later dirty rebuild pay
// for the warm-up's range); a clean layer's span only ever grows, to the
// hull of what it had and what the call needs, without counting as a
// rebuild; a cap inside the spans touches no cell.
func TestApportionerRebuildsOnlyNeededLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const floorW, n = 40.0, 10
	curves := make([][]CapPoint, n)
	for i := range curves {
		curves[i] = randCurve(rng, floorW)
	}
	// coneLo is the lowest level of position i's layer a backtrack from
	// top can arrive at: top less everything the members after it take.
	var inc Apportioner
	coneLo := func(top, i int) int {
		for _, m := range inc.order[i+1:] {
			top -= curveSpan(curves[m])
		}
		return max(0, top)
	}
	capAt := func(top int) float64 { return floorW*n + float64(top)*ServerCapStepW }
	total := 0
	for _, c := range curves {
		total += curveSpan(c)
	}
	spansAre := func(inc *Apportioner, what string, want func(i int) (lo, hi int)) {
		t.Helper()
		for i := range inc.layers {
			lo, hi := want(i)
			if inc.los[i] != lo || len(inc.layers[i]) != hi || len(inc.t[i].Cho) != hi {
				t.Fatalf("%s: layer %d spans [%d, %d), want [%d, %d)", what, i, inc.los[i], len(inc.layers[i]), lo, hi)
			}
		}
		checkApportionerSpans(t, inc)
	}

	warm := total + 500 // every member saturated and then some
	inc.Apportion(capAt(warm), floorW, curves)
	spansAre(&inc, "generous warm-up", func(i int) (int, int) { return coneLo(warm, i), warm + 1 })

	// Member 6 dirty at a binding cap: it moves to the tail, so positions
	// 6.. (members 7, 8, 9, then 6) are rebuilt — n-6 layers, as many as
	// the member-order table rebuilt — over that call's cone only; the
	// clean prefix reaches down to cover it and keeps its top.
	top := total / 3
	curves[6] = randCurve(rng, floorW)
	inc.Apportion(capAt(top), floorW, curves)
	if inc.LastRecomputed() != n-6 || inc.LastFellBack() {
		t.Fatalf("dirty member 6 of %d rebuilt %d layers (fell back: %v)", n, inc.LastRecomputed(), inc.LastFellBack())
	}
	if want := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 6}; !slices.Equal(inc.order, want) {
		t.Fatalf("dirty member 6: table order %v, want %v", inc.order, want)
	}
	spansAre(&inc, "capped dirty rebuild", func(i int) (int, int) {
		if i >= 6 {
			return coneLo(top, i), top + 1
		}
		return coneLo(top, i), warm + 1
	})

	// The cap walks down and up over clean curves: spans become the hull
	// of every cone read so far, no layer counts as rebuilt.
	lower, upper := top-top/2, top+top/2
	for _, l := range []int{lower, upper} {
		inc.Apportion(capAt(l), floorW, curves)
		if inc.LastRecomputed() != 0 {
			t.Fatalf("cap-only move to level %d counted %d rebuilds", l, inc.LastRecomputed())
		}
	}
	hull := func(i int) (int, int) {
		if i >= 6 {
			return coneLo(lower, i), upper + 1
		}
		return coneLo(lower, i), warm + 1
	}
	spansAre(&inc, "cap walked down and up", hull)

	// Any cap whose cone lies inside the spans reads the table as it
	// stands: a poisoned cell in the middle of a span survives the call
	// (and is put back before it can be read).
	mid := (lower + upper) / 2
	cell := &inc.layers[n-1][coneLo(mid, n-1)-1]
	kept := *cell
	*cell = math.NaN()
	gotB, gotP, gotG := inc.Apportion(capAt(mid), floorW, curves)
	if !math.IsNaN(*cell) || inc.LastRecomputed() != 0 {
		t.Fatalf("a cap inside the covered spans recomputed cells (%d layers counted)", inc.LastRecomputed())
	}
	*cell = kept
	spansAre(&inc, "cap inside the spans", hull)
	wantB, wantP, wantG := naiveApportionCurves(capAt(mid), floorW, curves)
	sameApportion(t, "cap inside the spans", gotB, gotP, gotG, wantB, wantP, wantG)
}

// A curve too long for the uint16 choice table takes the full DP (and
// rolls up to nothing) instead of wrapping an index.
func TestApportionerCurveLengthBound(t *testing.T) {
	long := make([]CapPoint, maxCurvePoints+1)
	for k := range long {
		long[k] = CapPoint{CapW: 40 + float64(k)*ServerCapStepW, Perf: float64(k), GridW: 40}
	}
	curves := [][]CapPoint{lineCurve(40, 5, 0.01), long}
	var inc Apportioner
	gotB, gotP, _ := inc.Apportion(200, 40, curves)
	wantB, wantP, _ := ApportionCurves(200, 40, curves)
	if gotP != wantP || gotB[0] != wantB[0] || gotB[1] != wantB[1] {
		t.Fatalf("over-long curve: budgets %v perf %v, full DP %v perf %v", gotB, gotP, wantB, wantP)
	}
	if got := inc.Rollup(40, curves, 0); got != nil {
		t.Fatalf("over-long curve rolled up to %d points, want nil", len(got))
	}
	// One point shorter is indexable and exact.
	curves[1] = long[:maxCurvePoints]
	gotB, _, _ = inc.Apportion(200, 40, curves)
	wantB, _, _ = ApportionCurves(200, 40, curves)
	if gotB[0] != wantB[0] || gotB[1] != wantB[1] {
		t.Fatalf("longest indexable curve: budgets %v, full DP %v", gotB, wantB)
	}
}
