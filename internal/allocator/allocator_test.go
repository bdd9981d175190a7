package allocator

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

func testCurves(t *testing.T, names ...string) (simhw.Config, []*workload.Curve, []*workload.Profile) {
	t.Helper()
	cfg := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var curves []*workload.Curve
	var profs []*workload.Profile
	for _, n := range names {
		p := lib.MustApp(n)
		profs = append(profs, p)
		curves = append(curves, workload.OptimalCurve(cfg, p))
	}
	return cfg, curves, profs
}

func TestApportionValidation(t *testing.T) {
	if _, err := Apportion(nil, 10, 0); err == nil {
		t.Error("empty curve list accepted")
	}
	if _, err := EqualSplit(nil, 10); err == nil {
		t.Error("empty curve list accepted by EqualSplit")
	}
}

func TestApportionSpendsWithinBudget(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	for _, budget := range []float64{0, 5, 10, 20, 30, 50} {
		plan, err := Apportion(curves, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		var budgets float64
		for _, a := range plan.Allocs {
			budgets += a.BudgetW
			if a.Runnable && a.Point.PowerW > a.BudgetW+1e-9 {
				t.Fatalf("budget %g: point draws %g over share %g", budget, a.Point.PowerW, a.BudgetW)
			}
		}
		if budgets > budget+1e-9 {
			t.Fatalf("budget %g: shares sum to %g", budget, budgets)
		}
		if plan.SpentW > budget+1e-9 {
			t.Fatalf("budget %g: spent %g", budget, plan.SpentW)
		}
	}
}

func TestApportionMatchesBruteForceOnTwoApps(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const step = 0.5
	for _, budget := range []float64{10, 20, 30} {
		plan, err := Apportion(curves, budget, step)
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force the split on the same grid.
		best := -1.0
		for b0 := 0.0; b0 <= budget+1e-9; b0 += step {
			v := curves[0].PerfAt(b0) + curves[1].PerfAt(budget-b0)
			if v > best {
				best = v
			}
		}
		if math.Abs(plan.TotalPerf-best) > 1e-9 {
			t.Errorf("budget %g: DP total %g, brute force %g", budget, plan.TotalPerf, best)
		}
	}
}

func TestApportionBeatsOrMatchesEqualSplit(t *testing.T) {
	cfg, _, _ := testCurves(t, "STREAM")
	lib, _ := workload.NewLibrary(cfg)
	rng := rand.New(rand.NewSource(8))
	apps := lib.Apps()
	for trial := 0; trial < 40; trial++ {
		a := apps[rng.Intn(len(apps))]
		b := apps[rng.Intn(len(apps))]
		curves := []*workload.Curve{workload.OptimalCurve(cfg, a), workload.OptimalCurve(cfg, b)}
		budget := 6 + rng.Float64()*40
		dp, err := Apportion(curves, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := EqualSplit(curves, budget)
		if err != nil {
			t.Fatal(err)
		}
		// The DP is exact on its budget grid; a continuous equal split
		// can land between grid levels, so allow one grid step's worth
		// of slack (step x a generous slope bound).
		const quantSlack = 0.03
		if dp.TotalPerf+quantSlack < eq.TotalPerf {
			t.Fatalf("%s+%s at %g W: DP %g worse than equal split %g",
				a.Name, b.Name, budget, dp.TotalPerf, eq.TotalPerf)
		}
	}
}

func TestEqualSplitShares(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	plan, err := EqualSplit(curves, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range plan.Allocs {
		if a.BudgetW != 15 {
			t.Errorf("alloc %d share = %g, want 15", i, a.BudgetW)
		}
		if !a.Runnable {
			t.Errorf("alloc %d not runnable at 15 W", i)
		}
	}
}

func TestApportionThreeApps(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans", "X264")
	plan, err := Apportion(curves, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Allocs) != 3 {
		t.Fatalf("%d allocations, want 3", len(plan.Allocs))
	}
	eq, _ := EqualSplit(curves, 30)
	if plan.TotalPerf+1e-9 < eq.TotalPerf {
		t.Errorf("DP (%g) worse than equal split (%g) with 3 applications", plan.TotalPerf, eq.TotalPerf)
	}
}

func TestQuickApportionNeverOverspends(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apps := lib.Apps()
	curveCache := make(map[string]*workload.Curve)
	curveFor := func(name string) *workload.Curve {
		if c, ok := curveCache[name]; ok {
			return c
		}
		c := workload.OptimalCurve(cfg, lib.MustApp(name))
		curveCache[name] = c
		return c
	}
	prop := func(ai, bi uint8, bud uint16) bool {
		a := apps[int(ai)%len(apps)]
		b := apps[int(bi)%len(apps)]
		budget := float64(bud%600) / 10 // 0..60 W
		plan, err := Apportion([]*workload.Curve{curveFor(a.Name), curveFor(b.Name)}, budget, 0)
		if err != nil {
			return false
		}
		return plan.SpentW <= budget+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// referenceApportion is the unweighted DP Apportion ran before it became
// ApportionWeighted's nil-objectives case: every split scanned from
// k = 0, no floor test. The merged DP is held bit-equal to it.
func referenceApportion(curves []*workload.Curve, budget, stepW float64) Plan {
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	levels := int(budget/stepW) + 1
	perfAt := make([][]float64, len(curves))
	for i, c := range curves {
		row := make([]float64, levels)
		for l := range row {
			row[l] = c.PerfAt(float64(l) * stepW)
		}
		perfAt[i] = row
	}
	best := make([]float64, levels)
	choice := make([][]int, len(curves))
	for i := range curves {
		choice[i] = make([]int, levels)
		next := make([]float64, levels)
		for l := range next {
			bestV, bestK := math.Inf(-1), 0
			for k := 0; k <= l; k++ {
				if v := best[l-k] + perfAt[i][k]; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l], choice[i][l] = bestV, bestK
		}
		best = next
	}
	plan := Plan{Allocs: make([]Allocation, len(curves))}
	l := levels - 1
	for i := len(curves) - 1; i >= 0; i-- {
		k := choice[i][l]
		share := float64(k) * stepW
		pt, ok := curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
		l -= k
	}
	return plan
}

// TestApportionMatchesUnweightedReference holds the one DP to the old
// unweighted loop at 13 budgets from 0 to 5x each set's saturation,
// over every pair of the library's OptimalCurves and RAPLCurves and a
// strided ring of triples. Every triple as well is 37 700 cases and
// ~35 s; they match too, but are too slow for each run.
func TestApportionMatchesUnweightedReference(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var curves []*workload.Curve
	for _, p := range lib.Apps() {
		curves = append(curves, workload.OptimalCurve(cfg, p), workload.RAPLCurve(cfg, p))
	}
	cases := 0
	check := func(set ...*workload.Curve) {
		var sat float64
		for _, c := range set {
			sat += c.MaxPower()
		}
		for j := 0; j <= 12; j++ {
			budget := 5 * sat * float64(j) / 12
			got, err := Apportion(set, budget, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceApportion(set, budget, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %g over %d curves: got %+v, reference %+v", budget, len(set), got, want)
			}
			cases++
		}
	}
	for i := range curves {
		for j := i; j < len(curves); j++ {
			check(curves[i], curves[j])
		}
		check(curves[i], curves[(i+5)%len(curves)], curves[(i+11)%len(curves)])
	}
	t.Logf("%d cases bit-equal", cases)
}
