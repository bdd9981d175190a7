package coordinator

import (
	"math"
	"strings"
	"testing"

	"powerstruggle/internal/allocator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

type fixture struct {
	hw     simhw.Config
	lib    *workload.Library
	profs  []*workload.Profile
	curves []*workload.Curve
}

func newFixture(t testing.TB, names ...string) *fixture {
	t.Helper()
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{hw: hw, lib: lib}
	for _, n := range names {
		p := lib.MustApp(n)
		f.profs = append(f.profs, p)
		f.curves = append(f.curves, workload.OptimalCurve(hw, p))
	}
	return f
}

func (f *fixture) run(t *testing.T, capW float64, sched Schedule, dev *esd.Device, seconds float64) RunResult {
	t.Helper()
	insts := make([]*workload.Instance, len(f.profs))
	for i, p := range f.profs {
		inst, err := workload.NewInstance(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	r := Runner{
		Config:      Config{HW: f.hw, CapW: capW},
		Profiles:    f.profs,
		Instances:   insts,
		Device:      dev,
		SampleEvery: 1,
	}
	res, err := r.Run(sched, seconds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSpaceScheduleAdheresAndPredicts(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	const capW = 100
	plan, err := allocator.Apportion(f.curves, f.hw.DynamicBudget(capW), 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Space(Config{HW: f.hw, CapW: capW}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Mode != ModeSpace {
		t.Fatalf("mode = %v, want space", sched.Mode)
	}
	if sched.PeakGridW > capW {
		t.Fatalf("predicted peak %g over cap", sched.PeakGridW)
	}
	res := f.run(t, capW, sched, nil, 30)
	if res.CapViolations != 0 {
		t.Fatalf("%d cap violations", res.CapViolations)
	}
	if math.Abs(res.TotalPerf-sched.TotalPerf) > 0.02 {
		t.Errorf("measured %g vs predicted %g", res.TotalPerf, sched.TotalPerf)
	}
}

func TestTimeScheduleFairSharesAndRestorePenalty(t *testing.T) {
	f := newFixture(t, "X264", "SSSP")
	const capW = 80
	cc := Config{HW: f.hw, CapW: capW}
	fair, err := Time(cc, f.curves, true)
	if err != nil {
		t.Fatal(err)
	}
	if fair.Mode != ModeTime {
		t.Fatalf("mode = %v, want time", fair.Mode)
	}
	if len(fair.Segments) != 2 {
		t.Fatalf("%d segments, want 2", len(fair.Segments))
	}
	if math.Abs(fair.Segments[0].Seconds-fair.Segments[1].Seconds) > 1e-9 {
		t.Errorf("fair duty cycle has unequal slices %g/%g",
			fair.Segments[0].Seconds, fair.Segments[1].Seconds)
	}
	res := f.run(t, capW, fair, nil, 30)
	if res.CapViolations != 0 {
		t.Fatalf("%d cap violations", res.CapViolations)
	}
	if math.Abs(res.TotalPerf-fair.TotalPerf) > 0.03 {
		t.Errorf("measured %g vs predicted %g", res.TotalPerf, fair.TotalPerf)
	}

	// Utility-weighted shares respect the fairness floor.
	weighted, err := Time(cc, f.curves, false)
	if err != nil {
		t.Fatal(err)
	}
	floor := DefaultMinShareFrac / 2 * weighted.PeriodS
	for i, seg := range weighted.Segments {
		if seg.Seconds < floor-1e-9 {
			t.Errorf("segment %d below the fairness floor: %g s", i, seg.Seconds)
		}
	}
}

func TestTimeRejectsImpossibleCaps(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	// A cap below idle + P_cm leaves no budget even for one at a time.
	if _, err := Time(Config{HW: f.hw, CapW: 70}, f.curves, true); err == nil {
		// 70 W leaves 0 W of dynamic budget: Time must fail.
		t.Fatal("Time accepted a cap with no dynamic budget")
	}
}

func TestESDScheduleMatchesEquation5(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	const capW = 80
	dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ESD(Config{HW: f.hw, CapW: capW}, f.curves, dev)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Mode != ModeESD || len(sched.Segments) != 2 {
		t.Fatalf("unexpected schedule shape: %v, %d segments", sched.Mode, len(sched.Segments))
	}
	off, on := sched.Segments[0], sched.Segments[1]
	if !off.Sleep || off.ChargeW <= 0 {
		t.Fatalf("first segment is not a charging sleep: %+v", off)
	}
	if on.DischargeW <= 0 || len(on.Run) != 2 {
		t.Fatalf("second segment is not a consolidated discharge: %+v", on)
	}
	// Equation (5): OFF/ON = (P_idle + P_cm + sum P_X - cap) / (eta *
	// chargeW), with the ON-phase draw implied by the discharge power.
	eta := dev.Spec().RoundTripEff()
	wantRatio := on.DischargeW / (eta * off.ChargeW)
	gotRatio := off.Seconds / on.Seconds
	if math.Abs(gotRatio-wantRatio)/wantRatio > 1e-6 {
		t.Errorf("OFF/ON = %g, equation (5) wants %g", gotRatio, wantRatio)
	}
	// Peak grid draw is exactly the cap (discharge tops it up).
	if math.Abs(sched.PeakGridW-capW) > 1e-9 {
		t.Errorf("peak grid %g, want the cap %d", sched.PeakGridW, capW)
	}
	res := f.run(t, capW, sched, dev, 60)
	if res.CapViolations != 0 {
		t.Fatalf("%d cap violations", res.CapViolations)
	}
	if math.Abs(res.TotalPerf-sched.TotalPerf) > 0.05 {
		t.Errorf("measured %g vs predicted %g", res.TotalPerf, sched.TotalPerf)
	}
}

func TestESDSustainsStateOfCharge(t *testing.T) {
	f := newFixture(t, "X264", "SSSP")
	dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ESD(Config{HW: f.hw, CapW: 80}, f.curves, dev)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.SoC()
	res := f.run(t, 80, sched, dev, 120)
	after := dev.SoC()
	// The schedule is energy-balanced per period: SoC must not drift.
	if math.Abs(after-before) > 0.02 {
		t.Errorf("SoC drifted %g -> %g over 120 s", before, after)
	}
	if res.TotalPerf <= 0 {
		t.Error("no progress under ESD coordination")
	}
}

func TestConsolidatedESDBeatsAlternate(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	const capW = 70 // below even one application's needs: the Fig 5 regime
	cc := Config{HW: f.hw, CapW: capW}
	devA, _ := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	alt, err := AlternateESD(cc, f.curves, devA)
	if err != nil {
		t.Fatal(err)
	}
	devC, _ := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	cons, err := ESD(cc, f.curves, devC)
	if err != nil {
		t.Fatal(err)
	}
	if cons.TotalPerf <= alt.TotalPerf {
		t.Errorf("consolidated ESD (%g) does not beat alternate (%g): P_cm not amortized",
			cons.TotalPerf, alt.TotalPerf)
	}
	// The paper's Fig 5 gain is ~30%; ours should be comfortably
	// positive and of that order.
	if gain := cons.TotalPerf/alt.TotalPerf - 1; gain < 0.15 {
		t.Errorf("consolidation gain %.1f%%, want >= 15%%", gain*100)
	}
}

func TestESDValidation(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	if _, err := ESD(Config{HW: f.hw, CapW: 80}, f.curves, nil); err == nil {
		t.Error("ESD without a device accepted")
	}
	dev, _ := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if _, err := ESD(Config{HW: f.hw, CapW: 45}, f.curves, dev); err == nil {
		t.Error("ESD with no charging headroom accepted")
	}
	if _, err := ESD(Config{HW: f.hw, CapW: 80}, nil, dev); err == nil {
		t.Error("ESD with no applications accepted")
	}
	if _, err := Space(Config{HW: f.hw, CapW: 80}, allocator.Plan{Allocs: []allocator.Allocation{{}}}); err == nil {
		t.Error("Space with an unrunnable allocation accepted")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeSpace.String() != "space" || ModeTime.String() != "time" || ModeESD.String() != "esd" {
		t.Error("mode names changed")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode has empty name")
	}
}

func TestBrownoutGuardOnDepletedBattery(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	spec := esd.LeadAcid(20e3)
	dev, err := esd.NewDevice(spec, spec.MinSoC) // empty store
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ESD(Config{HW: f.hw, CapW: 80}, f.curves, dev)
	if err != nil {
		t.Fatal(err)
	}
	res := f.run(t, 80, sched, dev, 60)
	// The guard must keep the grid at/below the cap even while the
	// store cannot cover the ON phases...
	if res.CapViolations != 0 {
		t.Fatalf("%d violations starting from an empty battery (peak %.2f W)",
			res.CapViolations, res.MaxGridW)
	}
	// ...and once charged, progress resumes.
	if res.TotalPerf <= 0 {
		t.Error("no progress after the battery charged")
	}
	if dev.SoC() <= spec.MinSoC {
		t.Error("battery never charged")
	}
}

func TestScheduleString(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	dev, _ := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	sched, err := ESD(Config{HW: f.hw, CapW: 80}, f.curves, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.String()
	for _, want := range []string{"esd", "sleep", "discharge", "run(2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Schedule.String %q missing %q", s, want)
		}
	}
}

// TestESDSolvesOneDP: the ESD search reads every ON-phase budget out of
// one allocator table, so a call is one dp solve however many budgets it
// visits.
func TestESDSolvesOneDP(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	reg := telemetry.NewRegistry()
	allocator.EnableTelemetry(reg)
	defer allocator.EnableTelemetry(nil)
	solves := reg.CounterVec("ps_allocator_solves_total", "", "solver").With("dp")
	for _, capW := range []float64{60, 70, 80, 90, 100} {
		dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		before := solves.Value()
		if _, err := ESD(Config{HW: f.hw, CapW: capW}, f.curves, dev); err != nil {
			t.Fatal(err)
		}
		if n := solves.Value() - before; n != 1 {
			t.Errorf("cap %g W: ESD ran %d DP solves, want 1", capW, n)
		}
	}
}

// BenchmarkESD times one ESD schedule search for a two-application mix
// at 80 W, the re-plan shape of psperf's server-churn.
func BenchmarkESD(b *testing.B) {
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		b.Fatal(err)
	}
	curves := []*workload.Curve{
		workload.OptimalCurve(hw, lib.MustApp("STREAM")),
		workload.OptimalCurve(hw, lib.MustApp("kmeans")),
	}
	dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{HW: hw, CapW: 80}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ESD(cfg, curves, dev); err != nil {
			b.Fatal(err)
		}
	}
}
