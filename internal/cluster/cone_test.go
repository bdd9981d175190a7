package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveApportionCurves is ApportionCurves as it stood before the DP was
// limited to the cells a read-out can reach — every member's layer swept
// over every budget level, no band, no tail fill — retained verbatim as
// the oracle the cone DP (ApportionCurves and the Apportioner alike) is
// held to, bit for bit.
func naiveApportionCurves(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
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
	// DP over the budget above the idle floors, in curve-index units
	// (curve point k costs k*serverCapStepW above the floor).
	spare := capQ - floorW*float64(n)
	levels := int(spare/serverCapStepW) + 1
	best := make([]float64, levels)
	choice := make([][]int, n)
	for i := 0; i < n; i++ {
		choice[i] = make([]int, levels)
		next := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestK := math.Inf(-1), 0
			kMax := l
			if kMax >= len(curves[i]) {
				kMax = len(curves[i]) - 1
			}
			for k := 0; k <= kMax; k++ {
				if v := best[l-k] + curves[i][k].Perf; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l] = bestV
			choice[i][l] = bestK
		}
		best = next
	}
	l := levels - 1
	for i := n - 1; i >= 0; i-- {
		k := choice[i][l]
		budgets[i] = curves[i][k].CapW
		perf += curves[i][k].Perf
		gridW += curves[i][k].GridW
		l -= k
	}
	return budgets, perf, gridW
}

// naiveTable is the same sweep keeping every layer: values[i][l] and
// choices[i][l] for every member and every level below levels.
func naiveTable(curves [][]CapPoint, levels int) (values [][]float64, choices [][]int) {
	best := make([]float64, levels)
	for _, c := range curves {
		next, cho := make([]float64, levels), make([]int, levels)
		for l := range next {
			bestV, bestK := math.Inf(-1), 0
			for k := 0; k <= l && k < len(c); k++ {
				if v := best[l-k] + c[k].Perf; v > bestV {
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

// wildCurve is a curve no server would report — perf neither monotone
// nor concave, quantized so that ties between points and between member
// splits are common, sometimes a single point — which is what makes the
// first-best tie-break and the saturated tail observable.
func wildCurve(rng *rand.Rand, floorW float64) []CapPoint {
	n := 1 + rng.Intn(40)
	if rng.Intn(5) == 0 {
		n = 1
	}
	out := make([]CapPoint, n)
	for k := range out {
		out[k] = CapPoint{
			CapW:  floorW + float64(k)*ServerCapStepW,
			Perf:  float64(rng.Intn(9)-2) * 0.125,
			GridW: floorW + rng.Float64()*float64(k)*ServerCapStepW,
		}
	}
	return out
}

func sameApportion(t *testing.T, what string, gotB []float64, gotP, gotG float64, wantB []float64, wantP, wantG float64) {
	t.Helper()
	if gotP != wantP || gotG != wantG {
		t.Fatalf("%s: perf/grid (%v, %v), naive sweep (%v, %v)", what, gotP, gotG, wantP, wantG)
	}
	if len(gotB) != len(wantB) {
		t.Fatalf("%s: %d budgets, naive sweep %d", what, len(gotB), len(wantB))
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("%s: member %d budget %v, naive sweep %v", what, i, gotB[i], wantB[i])
		}
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

// checkApportionerSpans holds the table to its invariant: every layer is
// valid over one span [los[i], len(layers[i])), the spans nest the way
// the recurrence reads them, and every cell inside a span is the naive
// sweep's cell, value and choice.
func checkApportionerSpans(t *testing.T, a *Apportioner) {
	t.Helper()
	n := len(a.curves)
	if n == 0 {
		return
	}
	values, choices := naiveTable(a.curves, len(a.layers[0]))
	for i := 0; i < n; i++ {
		lo, hi := a.los[i], len(a.layers[i])
		if lo < 0 || lo >= hi || len(a.t[i].Cho) != hi {
			t.Fatalf("layer %d spans [%d, %d) with %d choices", i, lo, hi, len(a.t[i].Cho))
		}
		if i > 0 {
			if reach := max(0, lo-curveSpan(a.curves[i])); a.los[i-1] > reach || len(a.layers[i-1]) < hi {
				t.Fatalf("layer %d spans [%d, %d) but layer %d only [%d, %d): level %d is read and not there",
					i, lo, hi, i-1, a.los[i-1], len(a.layers[i-1]), reach)
			}
		}
		for l := lo; l < hi; l++ {
			if a.layers[i][l] != values[i][l] || int(a.t[i].Cho[l]) != choices[i][l] {
				t.Fatalf("layer %d level %d holds (%v, %d), naive sweep (%v, %d)",
					i, l, a.layers[i][l], a.t[i].Cho[l], values[i][l], choices[i][l])
			}
		}
	}
}

// TestConeDPMatchesNaiveReference holds both homes of the cone DP — the
// cold ApportionCurves and one long-lived Apportioner — to the naive
// full-table sweep, bit for bit, through everything that moves a cone:
// the cap walking up and down (from below the floors to past the point
// where every member saturates), k curves dirty anywhere, members
// joining and leaving, the floor changing, and a Rollup between two
// Apportions, which has to widen cone-limited layers to the full span
// and hand back exactly the reference rollup.
func TestConeDPMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1616))
	gen := func(floorW float64) []CapPoint {
		switch rng.Intn(4) {
		case 0:
			return stepCurve(rng, floorW)
		case 1:
			return randCurve(rng, floorW)
		}
		return wildCurve(rng, floorW)
	}
	for trial := 0; trial < 40; trial++ {
		floorW := 40.0
		curves := make([][]CapPoint, 1+rng.Intn(14))
		for i := range curves {
			curves[i] = gen(floorW)
		}
		var inc Apportioner
		capFrac := rng.Float64()
		for step := 0; step < 50; step++ {
			switch rng.Intn(10) {
			case 1: // one dirty member, the head as often as not
				i := 0
				if rng.Intn(2) == 0 {
					i = rng.Intn(len(curves))
				}
				curves[i] = gen(floorW)
			case 2: // k scattered dirty members
				for k := 1 + rng.Intn(3); k > 0; k-- {
					curves[rng.Intn(len(curves))] = gen(floorW)
				}
			case 3: // a member joins
				curves = append(curves, gen(floorW))
			case 4: // a member leaves, from anywhere
				if len(curves) > 1 {
					i := rng.Intn(len(curves))
					curves = append(curves[:i:i], curves[i+1:]...)
				}
			case 5: // floor change reprices everything
				floorW = 30 + float64(rng.Intn(8))*2
				for i := range curves {
					curves[i] = gen(floorW)
				}
			}
			n := len(curves)
			spans := 0
			for _, c := range curves {
				spans += curveSpan(c)
			}
			// The cap walks: mostly a step up or down from where it was,
			// now and then a jump — to under the floors, to the binding
			// middle, to more than the fleet can take.
			switch rng.Intn(6) {
			case 0:
				capFrac = -0.2 + rng.Float64()*1.6
			default:
				capFrac += (rng.Float64() - 0.5) * 0.3
			}
			capFrac = math.Max(-0.2, math.Min(1.4, capFrac))
			capW := floorW*float64(n) + capFrac*float64(spans)*ServerCapStepW

			wantB, wantP, wantG := naiveApportionCurves(capW, floorW, curves)
			gotB, gotP, gotG := ApportionCurves(capW, floorW, curves)
			sameApportion(t, "ApportionCurves", gotB, gotP, gotG, wantB, wantP, wantG)
			gotB, gotP, gotG = inc.Apportion(capW, floorW, curves)
			sameApportion(t, "Apportioner.Apportion", gotB, gotP, gotG, wantB, wantP, wantG)

			if rng.Intn(3) == 0 {
				sameCurveBits(t, "rollup between apportions",
					inc.Rollup(floorW, curves, 0), referenceRollupCurves(floorW, curves))
				for i := range inc.layers {
					if inc.los[i] != 0 || len(inc.layers[i]) <= spans {
						t.Fatalf("trial %d step %d: after a rollup layer %d spans [%d, %d), want [0, >%d)",
							trial, step, i, inc.los[i], len(inc.layers[i]), spans)
					}
				}
				capW += (rng.Float64() - 0.5) * 40
				wantB, wantP, wantG = naiveApportionCurves(capW, floorW, curves)
				gotB, gotP, gotG = inc.Apportion(capW, floorW, curves)
				if inc.LastRecomputed() != 0 {
					t.Fatalf("trial %d step %d: an apportion after a rollup rebuilt %d layers", trial, step, inc.LastRecomputed())
				}
				sameApportion(t, "Apportion after Rollup", gotB, gotP, gotG, wantB, wantP, wantG)
			}
			if step%10 == 9 {
				checkApportionerSpans(t, &inc)
			}
		}
	}
}

// dpBenchCurve builds member i's curve at mutation version ver on the
// canonical 2 W grid: a saturating utility whose knee tau, drawn from
// [25, 75) by a hash of (i, ver) as psperf draws its members', moves with
// every mutation, so every mutation genuinely changes the DP's inputs
// and no two members share a curve.
func dpBenchCurve(i, ver int) []CapPoint {
	const floorW, nameplateW = 50.0, 130.0
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(ver)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	tau := 25 + 50*float64(h>>11)/(1<<53)
	norm := 1 - math.Exp(-nameplateW/tau)
	var pts []CapPoint
	for c := floorW; c <= nameplateW; c += ServerCapStepW {
		pts = append(pts, CapPoint{CapW: c, Perf: (1 - math.Exp(-c/tau)) / norm, GridW: c})
	}
	return pts
}

// BenchmarkApportioner is the incremental DP's go test cell grid: 128
// and 1 000 members of 41 points, the cap cycling between 85 and 90 W a
// member under a 90 W warm-up. Per size, full-dp is ApportionCurves with
// member 0's curve changing before every call — what a full DP costs —
// and the other cells one Apportioner with k of its members' curves
// changing before every call: the same k every call, one per stratum of
// n/k at a seeded offset (spread), or with stratum 0's pinned to member
// 0 as psperf pins its first learner (pinned; k=1-pinned is the
// head-dirty case). k=0 is a cap-only read-out. layers/op is the mean
// layers rebuilt per call, fallbacks/op the share of calls whose
// certificate failed.
func BenchmarkApportioner(b *testing.B) {
	const floorW = 50.0
	for _, n := range []int{128, 1000} {
		type cell struct {
			name    string
			k       int
			pattern string
		}
		cells := []cell{{"full-dp", 1, "head"}, {"cap-only", 0, "none"}}
		for _, k := range []int{1, 4, n / 8} {
			cells = append(cells, cell{fmt.Sprintf("k=%d-pinned", k), k, "pinned"}, cell{fmt.Sprintf("k=%d-spread", k), k, "spread"})
		}
		for _, bc := range cells {
			b.Run(fmt.Sprintf("n=%d/%s", n, bc.name), func(b *testing.B) {
				curves := make([][]CapPoint, n)
				vers := make([]int, n)
				for i := range curves {
					curves[i] = dpBenchCurve(i, 0)
				}
				dirty := dirtySet(bc.pattern, n, bc.k)
				var inc Apportioner
				inc.Apportion(float64(n)*90, floorW, curves)
				layers, fallbacks := 0, 0
				call := func(i int) {
					for _, m := range dirty {
						vers[m]++
						curves[m] = dpBenchCurve(m, vers[m])
					}
					capW := float64(n) * (85 + float64(i%6))
					if bc.name == "full-dp" {
						ApportionCurves(capW, floorW, curves)
						return
					}
					inc.Apportion(capW, floorW, curves)
					layers += inc.LastRecomputed()
					if inc.LastFellBack() {
						fallbacks++
					}
				}
				// A cap cycle of calls settles the order (the first moves
				// the dirty members to the tail) and the spans, so even
				// -benchtime 1x reads the steady state.
				for i := 0; i < 6 && bc.name != "full-dp"; i++ {
					call(i)
				}
				layers, fallbacks = 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					call(i)
				}
				if bc.name != "full-dp" {
					b.ReportMetric(float64(layers)/float64(b.N), "layers/op")
					b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
				}
			})
		}
	}
}
