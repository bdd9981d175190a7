package policy

import (
	"reflect"
	"testing"

	"powerstruggle/internal/coordinator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

func testContext(t *testing.T, capW float64, withESD bool, apps ...string) Context {
	t.Helper()
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		t.Fatal(err)
	}
	profs := make([]*workload.Profile, len(apps))
	for i, a := range apps {
		profs[i] = lib.MustApp(a)
	}
	ctx := Context{HW: hw, CapW: capW, Profiles: profs, Library: lib}
	if withESD {
		dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Device = dev
	}
	return ctx
}

func TestPlanValidation(t *testing.T) {
	ctx := testContext(t, 100, false, "STREAM", "kmeans")
	empty := ctx
	empty.Profiles = nil
	if _, err := Plan(UtilUnaware, empty); err == nil {
		t.Error("plan without applications accepted")
	}
	bad := ctx
	bad.CapW = 0
	if _, err := Plan(UtilUnaware, bad); err == nil {
		t.Error("plan with zero cap accepted")
	}
	noLib := ctx
	noLib.Library = nil
	if _, err := Plan(ServerResAware, noLib); err == nil {
		t.Error("Server+Res-Aware without a library accepted")
	}
}

// TestCapAboveNameplatePlansAsNameplate: a cap the hardware cannot reach
// is planned as nameplate, so the DP stays sized by the hardware and not
// by the request (a 1 MW cap used to take an hour per plan).
func TestCapAboveNameplatePlansAsNameplate(t *testing.T) {
	for _, k := range Kinds() {
		ctx := testContext(t, 0, true, "STREAM", "kmeans")
		ctx.CapW = ctx.HW.MaxServerWatts()
		want, err := Plan(k, ctx)
		if err != nil {
			t.Fatal(err)
		}
		ctx.CapW *= 4
		got, err := Plan(k, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v at 4x nameplate: shares %v, want the nameplate decision's %v",
				k, got.Schedule.AppBudgetW, want.Schedule.AppBudgetW)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		UtilUnaware:    "Util-Unaware",
		ServerResAware: "Server+Res-Aware",
		AppAware:       "App-Aware",
		AppResAware:    "App+Res-Aware",
		AppResESDAware: "App+Res+ESD-Aware",
	}
	if len(Kinds()) != len(want) {
		t.Fatalf("Kinds() has %d entries", len(Kinds()))
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestEveryPolicyAdheresToEveryCap is the central safety property: no
// policy's schedule may ever let the grid draw exceed the cap, measured
// by actually executing the schedule.
func TestEveryPolicyAdheresToEveryCap(t *testing.T) {
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{120, 100, 90, 80, 72}
	mixes := workload.Mixes()
	if testing.Short() {
		mixes = mixes[:4]
		caps = []float64{100, 80}
	}
	for _, m := range mixes {
		a, b, err := lib.MixProfiles(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, capW := range caps {
			for _, kind := range Kinds() {
				var dev *esd.Device
				if kind == AppResESDAware {
					dev, _ = esd.NewDevice(esd.LeadAcid(300e3), 0.6)
				}
				dec, err := Plan(kind, Context{
					HW: hw, CapW: capW,
					Profiles: []*workload.Profile{a, b},
					Library:  lib, Device: dev,
				})
				if err != nil {
					t.Fatalf("mix %d, %v at %g W: %v", m.ID, kind, capW, err)
				}
				if dec.Schedule.PeakGridW > capW+1e-6 {
					t.Fatalf("mix %d, %v at %g W: predicted peak %g over cap",
						m.ID, kind, capW, dec.Schedule.PeakGridW)
				}
				insts := []*workload.Instance{{Profile: a}, {Profile: b}}
				r := coordinator.Runner{
					Config:    coordinator.Config{HW: hw, CapW: capW},
					Profiles:  []*workload.Profile{a, b},
					Instances: insts,
					Device:    dev,
				}
				res, err := r.Run(dec.Schedule, 10)
				if err != nil {
					t.Fatalf("mix %d, %v at %g W: %v", m.ID, kind, capW, err)
				}
				if res.CapViolations != 0 {
					t.Fatalf("mix %d, %v at %g W: %d violations (peak %g)",
						m.ID, kind, capW, res.CapViolations, res.MaxGridW)
				}
			}
		}
	}
}

// TestPolicyOrderingMatchesThePaper checks the evaluation's headline
// staircase: on average across the mixes, awareness must pay — App-Aware
// over the baselines, App+Res-Aware over App-Aware, and the ESD scheme
// over everything at the stringent cap.
func TestPolicyOrderingMatchesThePaper(t *testing.T) {
	hw := simhw.DefaultConfig()
	lib, _ := workload.NewLibrary(hw)
	avg := func(kind Kind, capW float64) float64 {
		var sum float64
		for _, m := range workload.Mixes() {
			a, b, _ := lib.MixProfiles(m)
			var dev *esd.Device
			if kind == AppResESDAware {
				dev, _ = esd.NewDevice(esd.LeadAcid(300e3), 0.6)
			}
			dec, err := Plan(kind, Context{
				HW: hw, CapW: capW,
				Profiles: []*workload.Profile{a, b},
				Library:  lib, Device: dev,
			})
			if err != nil {
				t.Fatalf("mix %d %v: %v", m.ID, kind, err)
			}
			sum += dec.Schedule.TotalPerf
		}
		return sum / float64(len(workload.Mixes()))
	}

	// The loose cap (Fig 8).
	uu, app, appRes := avg(UtilUnaware, 100), avg(AppAware, 100), avg(AppResAware, 100)
	if app <= uu {
		t.Errorf("at 100 W App-Aware (%.3f) does not beat Util-Unaware (%.3f)", app, uu)
	}
	if appRes <= app {
		t.Errorf("at 100 W App+Res-Aware (%.3f) does not beat App-Aware (%.3f)", appRes, app)
	}
	if gain := appRes/uu - 1; gain < 0.05 {
		t.Errorf("at 100 W App+Res-Aware gains only %.1f%% over the baseline, want >= 5%%", gain*100)
	}

	// The stringent cap (Fig 10): much larger relative gains, and the
	// ESD scheme far ahead.
	uu80, appRes80, esd80 := avg(UtilUnaware, 80), avg(AppResAware, 80), avg(AppResESDAware, 80)
	if appRes80 <= uu80 {
		t.Errorf("at 80 W App+Res-Aware (%.3f) does not beat Util-Unaware (%.3f)", appRes80, uu80)
	}
	if gainLoose, gainTight := appRes/uu-1, appRes80/uu80-1; gainTight <= gainLoose {
		t.Errorf("stringent-cap gain (%.1f%%) not larger than loose-cap gain (%.1f%%)",
			gainTight*100, gainLoose*100)
	}
	if boost := esd80 / uu80; boost < 1.4 {
		t.Errorf("ESD boost at 80 W is %.2fx, want >= 1.4x (paper: ~70%%+)", boost)
	}
}

func TestESDPolicyUsesStorageOnlyWhenStringent(t *testing.T) {
	ctx := testContext(t, 110, true, "STREAM", "kmeans")
	dec, err := Plan(AppResESDAware, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Schedule.Mode == coordinator.ModeESD {
		t.Error("ESD coordination chosen at a loose 110 W cap")
	}
	ctx80 := testContext(t, 80, true, "STREAM", "kmeans")
	dec80, err := Plan(AppResESDAware, ctx80)
	if err != nil {
		t.Fatal(err)
	}
	if dec80.Schedule.Mode != coordinator.ModeESD {
		t.Errorf("mode %v at the stringent 80 W cap, want esd", dec80.Schedule.Mode)
	}
}

func TestCurveOverrideHook(t *testing.T) {
	ctx := testContext(t, 100, false, "STREAM", "kmeans")
	called := 0
	ctx.CurveOverride = func(i int, p *workload.Profile) *workload.Curve {
		called++
		return workload.OptimalCurve(ctx.HW, p)
	}
	if _, err := Plan(AppAware, ctx); err != nil {
		t.Fatal(err)
	}
	if called != 2 {
		t.Errorf("override called %d times, want 2", called)
	}
}

func TestDecisionRecordsCurvesAndPlan(t *testing.T) {
	ctx := testContext(t, 100, false, "X264", "SSSP")
	dec, err := Plan(AppResAware, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Curves) != 2 {
		t.Fatalf("%d curves recorded", len(dec.Curves))
	}
	if len(dec.Plan.Allocs) != 2 {
		t.Fatalf("%d allocations recorded", len(dec.Plan.Allocs))
	}
	if dec.Plan.SpentW > ctx.HW.DynamicBudget(100)+1e-9 {
		t.Errorf("plan spends %g over the dynamic budget", dec.Plan.SpentW)
	}
}

func TestFourAppAdherence(t *testing.T) {
	hw := simhw.DefaultConfig()
	hw.ChannelSharing = 2
	lib, err := workload.NewLibrary(simhw.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Shrink four applications to 3 cores and doubled memory traffic
	// (two sharers per channel).
	var profs []*workload.Profile
	for _, name := range []string{"STREAM", "kmeans", "X264", "BFS"} {
		p := *lib.MustApp(name)
		if p.MaxCores > 3 {
			p.MaxCores = 3
		}
		p.MemBytesPerBeat *= 2
		profs = append(profs, &p)
	}
	for _, capW := range []float64{110, 95} {
		for _, kind := range []Kind{UtilUnaware, AppResAware} {
			dec, err := Plan(kind, Context{HW: hw, CapW: capW, Profiles: profs, Library: lib})
			if err != nil {
				t.Fatalf("%v at %g W: %v", kind, capW, err)
			}
			if dec.Schedule.PeakGridW > capW+1e-6 {
				t.Fatalf("%v at %g W: peak %g", kind, capW, dec.Schedule.PeakGridW)
			}
			insts := make([]*workload.Instance, len(profs))
			for i := range profs {
				insts[i], _ = workload.NewInstance(profs[i], 0)
			}
			r := coordinator.Runner{
				Config:    coordinator.Config{HW: hw, CapW: capW},
				Profiles:  profs,
				Instances: insts,
			}
			res, err := r.Run(dec.Schedule, 8)
			if err != nil {
				t.Fatalf("%v at %g W: %v", kind, capW, err)
			}
			if res.CapViolations != 0 {
				t.Fatalf("%v at %g W: %d violations", kind, capW, res.CapViolations)
			}
		}
	}
}
