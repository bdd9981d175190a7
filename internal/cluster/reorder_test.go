package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The volatility-ordered table against the member-order DP: every answer
// bit-equal to ApportionCurves whichever table gave it, the layers it
// rebuilds bounded by what moved, and the certificate refusing every
// reordered path that would have broken a tie another way.

// fleetCurve draws one curve of a parity fleet with pts points:
//   - "generic": a saturating utility with a random knee, the shape
//     servers report;
//   - "ties": a demand member's curve (linear in eighths up to a demand,
//     flat past it) — exact sums, so many members share a curve and
//     every split of the same watts ties exactly;
//   - "near": as often as not a near twin of one of fleet's curves, its
//     perf a few ulps off — two plans a rounding apart, which two fold
//     orders can rank either way — and a generic curve otherwise, so the
//     fleet certifies on some calls and not on others.
func fleetCurve(rng *rand.Rand, kind string, floorW float64, pts int, fleet [][]CapPoint) []CapPoint {
	out := make([]CapPoint, pts)
	if kind == "near" && rng.Intn(2) == 0 {
		if twin := fleet[rng.Intn(len(fleet))]; len(twin) == pts {
			nudge := 1 + float64(rng.Intn(7)-3)*0x1p-52
			for k, p := range twin {
				out[k] = CapPoint{CapW: p.CapW, Perf: p.Perf * nudge, GridW: p.GridW}
			}
			return out
		}
	}
	tau := 4 + rng.Float64()*float64(pts)
	demand := 1 + rng.Intn(pts)
	for k := range out {
		perf := 1 - math.Exp(-float64(k)/tau)
		if kind == "ties" {
			perf = float64(min(k, demand)) * 0.125
		}
		w := floorW + float64(k)*ServerCapStepW
		out[k] = CapPoint{CapW: w, Perf: perf, GridW: w - float64(k)*0.25}
	}
	return out
}

// dirtySet returns the members a pattern changes before a call: none;
// member 0 (the head); one member per stratum of n/k at a seeded offset,
// stratum 0's pinned to member 0 as psperf pins its first learner (or
// not, spread); or all of them.
func dirtySet(pattern string, n, k int) []int {
	var out []int
	switch pattern {
	case "head":
		out = []int{0}
	case "pinned", "spread":
		off := rand.New(rand.NewSource(int64(n*31 + k)))
		for s := 0; s < k; s++ {
			out = append(out, s*(n/k)+off.Intn(n/k))
		}
		if pattern == "pinned" {
			out[0] = 0
		}
	case "all":
		for m := 0; m < n; m++ {
			out = append(out, m)
		}
	}
	return out
}

func sameBits(t *testing.T, what string, gotB []float64, gotP, gotG float64, wantB []float64, wantP, wantG float64) {
	t.Helper()
	if math.Float64bits(gotP) != math.Float64bits(wantP) || math.Float64bits(gotG) != math.Float64bits(wantG) {
		t.Fatalf("%s: perf/grid (%v, %v), member-order DP (%v, %v)", what, gotP, gotG, wantP, wantG)
	}
	if len(gotB) != len(wantB) {
		t.Fatalf("%s: %d budgets, member-order DP %d", what, len(gotB), len(wantB))
	}
	for i := range wantB {
		if math.Float64bits(gotB[i]) != math.Float64bits(wantB[i]) {
			t.Fatalf("%s: member %d budget %v, member-order DP %v", what, i, gotB[i], wantB[i])
		}
	}
}

// TestApportionerReorderedParity drives one Apportioner per (fleet size,
// fleet kind, dirty pattern) through calls at a cap walking across the
// binding range, now and then past saturation, and holds every answer to
// ApportionCurves bit for bit. Patterns: none, the head, spread (psperf's
// strata, head pinned), all, and a member count that changes every call
// (a member joins at the tail or leaves from anywhere, the head dirty
// too). Generic fleets must be answered from the reordered table without
// a single fallback; across the near-tie fleets the certificate must have
// refused at least one reordered path.
func TestApportionerReorderedParity(t *testing.T) {
	const floorW = 50.0
	nearFallbacks := 0
	for _, size := range []struct{ n, pts, calls int }{{128, 41, 14}, {1000, 9, 4}} {
		for _, kind := range []string{"generic", "ties", "near"} {
			for _, pattern := range []string{"none", "head", "pinned", "all", "count"} {
				what := fmt.Sprintf("%d members, %s curves, %s dirty", size.n, kind, pattern)
				rng := rand.New(rand.NewSource(int64(size.n) + int64(len(kind)*7+len(pattern))))
				curves := make([][]CapPoint, size.n)
				for m := range curves {
					curves[m] = fleetCurve(rng, kind, floorW, size.pts, curves)
				}
				var inc Apportioner
				frac, reordered, fallbacks := 0.5, 0, 0
				for call := 0; call < size.calls; call++ {
					if call > 0 {
						dirty := dirtySet(pattern, len(curves), len(curves)/16)
						if pattern == "count" {
							dirty = []int{0}
							if rng.Intn(2) == 0 {
								curves = append(curves, fleetCurve(rng, kind, floorW, size.pts, curves))
							} else {
								i := rng.Intn(len(curves))
								curves = append(curves[:i:i], curves[i+1:]...)
							}
						}
						for _, m := range dirty {
							curves[m] = fleetCurve(rng, kind, floorW, size.pts, curves)
						}
					}
					frac = math.Max(0.15, math.Min(0.85, frac+(rng.Float64()-0.5)*0.2))
					if call == size.calls-1 {
						frac = 1.2 // every member saturated
					}
					capW := floorW*float64(len(curves)) + frac*float64(len(curves)*(size.pts-1))*ServerCapStepW
					wantB, wantP, wantG := ApportionCurves(capW, floorW, curves)
					gotB, gotP, gotG := inc.Apportion(capW, floorW, curves)
					sameBits(t, fmt.Sprintf("%s, call %d", what, call), gotB, gotP, gotG, wantB, wantP, wantG)
					if inc.LastFellBack() {
						fallbacks++
					} else if !inc.inMemberOrder() {
						reordered++
					}
				}
				switch {
				case kind == "generic" && fallbacks > 0:
					t.Errorf("%s: %d certificate fallbacks, want none", what, fallbacks)
				case kind == "generic" && pattern != "none" && pattern != "all" && reordered == 0:
					t.Errorf("%s: never answered from a reordered table", what)
				}
				if kind == "near" {
					nearFallbacks += fallbacks
				}
				t.Logf("%s: %d calls answered reordered, %d fell back", what, reordered, fallbacks)
			}
		}
	}
	if nearFallbacks == 0 {
		t.Error("no near-tie fleet ever failed its certificate: the refusal path went untested")
	}
}

// TestCertificateRefusesReorderedTieBreaks lays tie-heavy and near-tie
// fleets out in volatility order by hand and reads the reordered table's
// own path. Wherever that path is not the member-order DP's, the
// certificate must refuse it — and such paths must occur, or the test
// shows nothing.
func TestCertificateRefusesReorderedTieBreaks(t *testing.T) {
	const floorW, n = 50.0, 24
	rng := rand.New(rand.NewSource(5))
	differ := 0
	for trial := 0; trial < 300; trial++ {
		kind := []string{"ties", "near", "generic"}[trial%3]
		curves := make([][]CapPoint, n)
		for m := range curves {
			curves[m] = fleetCurve(rng, kind, floorW, 2+rng.Intn(12), curves)
		}
		var inc Apportioner
		inc.sync(floorW, curves, 0, 0, false)
		for _, m := range dirtySet("spread", n, 1+rng.Intn(6)) {
			curves[m] = fleetCurve(rng, kind, floorW, 2+rng.Intn(12), curves)
		}
		spans := 0
		for _, c := range curves {
			spans += curveSpan(c)
		}
		top := 1 + rng.Intn(spans)
		inc.sync(floorW, curves, top, top, true)
		ok := inc.certify(top, true)
		wantB, _, _ := ApportionCurves(floorW*n+float64(top)*ServerCapStepW, floorW, curves)
		for m, k := range inc.choice {
			if curves[m][k].CapW != wantB[m] {
				differ++
				if ok {
					t.Fatalf("trial %d (%s): the reordered path gives member %d %v W, the member-order DP %v W, and the certificate passed it",
						trial, kind, m, curves[m][k].CapW, wantB[m])
				}
				break
			}
		}
	}
	if differ == 0 {
		t.Fatal("no reordered path ever differed from the member-order DP's: the certificate was never needed")
	}
	t.Logf("%d of 300 reordered paths broke a tie another way; all refused", differ)
}

// memberOrderRebuilds is what the member-order cache rebuilt for a call:
// every layer from the first member whose curve changed.
func memberOrderRebuilds(prev, cur [][]CapPoint) int {
	for i := range cur {
		if i >= len(prev) || curveChanged(prev[i], cur[i]) {
			return len(cur) - i
		}
	}
	return 0
}

// TestApportionerRebuildCounts pins the layer counts, no wall clock:
//   - after warm-up, a steady set of k dirty members rebuilds at most k
//     layers per call, wherever the set sits, with no fallback;
//   - a tie-heavy fleet, whose certificates fail, rebuilds no more layers
//     over 100 calls than the member-order cache did;
//   - a Rollup after reordered Apportions is bit-equal to RollupCurves,
//     and an Apportion right after it rebuilds nothing.
func TestApportionerRebuildCounts(t *testing.T) {
	const floorW, n = 50.0, 128
	for _, k := range []int{1, 4, 16} {
		for _, pattern := range []string{"pinned", "spread"} {
			rng := rand.New(rand.NewSource(int64(k)))
			curves := make([][]CapPoint, n)
			for m := range curves {
				curves[m] = fleetCurve(rng, "generic", floorW, 41, nil)
			}
			dirty := dirtySet(pattern, n, k)
			var inc Apportioner
			for call := 0; call < 30; call++ {
				for _, m := range dirty {
					curves[m] = fleetCurve(rng, "generic", floorW, 41, nil)
				}
				inc.Apportion(floorW*n+float64(n*(12+call%5))*ServerCapStepW, floorW, curves)
				if inc.LastFellBack() {
					t.Fatalf("k=%d %s, call %d: the certificate failed on a generic fleet", k, pattern, call)
				}
				if call >= 2 && inc.LastRecomputed() > k {
					t.Fatalf("k=%d %s, call %d: %d layers rebuilt, want at most %d", k, pattern, call, inc.LastRecomputed(), k)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(9))
	curves := make([][]CapPoint, n)
	for m := range curves {
		curves[m] = fleetCurve(rng, "ties", floorW, 17, nil)
	}
	var inc Apportioner
	var prev [][]CapPoint
	ours, theirs := 0, 0
	for call := 0; call < 100; call++ {
		if call > 0 {
			for _, m := range dirtySet([]string{"head", "spread", "pinned"}[call%3], n, 4) {
				curves[m] = fleetCurve(rng, "ties", floorW, 17, nil)
			}
		}
		inc.Apportion(floorW*n+float64(n*(3+call%9))*ServerCapStepW, floorW, curves)
		ours += inc.LastRecomputed()
		theirs += memberOrderRebuilds(prev, curves)
		prev = append(prev[:0], curves...)
	}
	if ours > theirs {
		t.Fatalf("tie-heavy fleet: %d layers rebuilt over 100 calls, the member-order cache %d", ours, theirs)
	}
	t.Logf("tie-heavy fleet: %d layers over 100 calls, member-order cache %d", ours, theirs)

	curves = curves[:0]
	for m := 0; m < 40; m++ {
		curves = append(curves, fleetCurve(rng, "generic", floorW, 21, nil))
	}
	inc = Apportioner{}
	for call := 0; call < 5; call++ {
		curves[0] = fleetCurve(rng, "generic", floorW, 21, nil)
		inc.Apportion(floorW*40+float64(40*(6+call))*ServerCapStepW, floorW, curves)
	}
	if inc.inMemberOrder() {
		t.Fatal("a head-dirty generic fleet is still in member order: nothing reordered to roll up from")
	}
	sameCurveBits(t, "rollup after reordered apportions", inc.Rollup(floorW, curves, 0), RollupCurves(floorW, curves))
	capW := floorW*40 + 300*ServerCapStepW
	gotB, gotP, gotG := inc.Apportion(capW, floorW, curves)
	if inc.LastRecomputed() != 0 {
		t.Fatalf("an apportion right after a rollup rebuilt %d layers", inc.LastRecomputed())
	}
	wantB, wantP, wantG := ApportionCurves(capW, floorW, curves)
	sameBits(t, "apportion after the rollup", gotB, gotP, gotG, wantB, wantP, wantG)
}
