package allocator

import (
	"reflect"
	"testing"

	"powerstruggle/internal/simhw"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

// esdBudgets lists the ON-phase budgets coordinator.ESD visits for set
// under capW, with its accumulation: one past the cap's dynamic budget,
// then every watt up to the set's saturation.
func esdBudgets(cfg simhw.Config, capW float64, set []*workload.Curve) []float64 {
	maxL := 0.0
	for _, c := range set {
		maxL += c.MaxPower()
	}
	var out []float64
	for L := cfg.DynamicBudget(capW) + 1; L <= maxL+1e-9; L += 1 {
		out = append(out, L)
	}
	return out
}

// TestSweepMatchesApportion holds a Sweep's read-outs to a fresh
// Apportion at every budget coordinator.ESD visits for caps 60–120 W,
// with the sweep sized per cap as ESD sizes it, over every pair of the
// library's OptimalCurves and RAPLCurves and a strided ring of triples.
func TestSweepMatchesApportion(t *testing.T) {
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
		want := make(map[float64]Plan)
		for capW := 60.0; capW <= 120; capW++ {
			budgets := esdBudgets(cfg, capW, set)
			if len(budgets) == 0 {
				continue
			}
			sweep, err := Sweep(set, budgets[0], budgets[len(budgets)-1])
			if err != nil {
				t.Fatal(err)
			}
			for _, L := range budgets {
				got, err := sweep.Plan(L)
				if err != nil {
					t.Fatal(err)
				}
				w, ok := want[L]
				if !ok {
					if w, err = Apportion(set, L, 0); err != nil {
						t.Fatal(err)
					}
					want[L] = w
				}
				if !reflect.DeepEqual(got, w) {
					t.Fatalf("cap %g W, budget %g over %d curves: sweep %+v, Apportion %+v", capW, L, len(set), got, w)
				}
				cases++
			}
		}
	}
	for i := range curves {
		for j := i; j < len(curves); j++ {
			check(curves[i], curves[j])
		}
		check(curves[i], curves[(i+5)%len(curves)], curves[(i+11)%len(curves)])
	}
	t.Logf("%d read-outs bit-equal", cases)
}

func TestSweepRejectsBudgetAboveItsTable(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	if _, err := Sweep(nil, 0, 10); err == nil {
		t.Error("empty curve list accepted")
	}
	sweep, err := Sweep(curves, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Plan(20.4); err != nil {
		t.Errorf("budget on the table's top level refused: %v", err)
	}
	if _, err := sweep.Plan(20.5); err == nil {
		t.Error("budget above the table accepted")
	}
	got, err := sweep.Plan(-3)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Apportion(curves, -3, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("negative budget: sweep %+v, Apportion %+v", got, want)
	}
	ranged, err := Sweep(curves, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ranged.Plan(9.9); err == nil {
		t.Error("budget below the table accepted")
	}
	if _, err := ranged.Plan(10); err != nil {
		t.Errorf("budget on the table's bottom level refused: %v", err)
	}
}

// TestSweepIsOneSolve: a sweep read out at many budgets counts as one
// dp solve, observed at its largest budget.
func TestSweepIsOneSolve(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)
	sweep, err := Sweep(curves, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	for L := 1.0; L <= 30; L++ {
		if _, err := sweep.Plan(L); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.CounterVec("ps_allocator_solves_total", "", "solver").With("dp").Value(); n != 1 {
		t.Errorf("%d dp solves for one sweep, want 1", n)
	}
	top, _ := sweep.Plan(30)
	if b := reg.Gauge("ps_allocator_budget_watts", "").Value(); b != 30 {
		t.Errorf("budget gauge %g, want 30", b)
	}
	if w := reg.Gauge("ps_allocator_apportioned_watts", "").Value(); w != top.SpentW {
		t.Errorf("apportioned gauge %g, want the top plan's %g", w, top.SpentW)
	}
}

// BenchmarkSweep is the one DP a coordinator.ESD re-plan solves: two
// library applications' OptimalCurves swept over the ON-phase budgets
// ESD visits under an 80 W cap.
func BenchmarkSweep(b *testing.B) {
	cfg := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(cfg)
	if err != nil {
		b.Fatal(err)
	}
	curves := []*workload.Curve{
		workload.OptimalCurve(cfg, lib.MustApp("STREAM")),
		workload.OptimalCurve(cfg, lib.MustApp("kmeans")),
	}
	budgets := esdBudgets(cfg, 80, curves)
	minL, maxL := budgets[0], budgets[len(budgets)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(curves, minL, maxL); err != nil {
			b.Fatal(err)
		}
	}
}
