package coordinator

import (
	"slices"
	"testing"

	"powerstruggle/internal/faults"
)

// overCapSchedule pins every application at its uncapped knobs so the
// server draws well past any reasonable cap.
func overCapSchedule(f *fixture) Schedule {
	run := map[int]SegKnob{}
	for i, p := range f.profs {
		run[i] = SegKnob{Knobs: p.NoCapKnobs(f.hw), Duty: 1}
	}
	return Schedule{PeriodS: 1, Segments: []Segment{{Seconds: 1, Run: run}}}
}

func TestWatchdogEngagesAndClamps(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	ex, err := NewExecutor(Config{HW: f.hw, CapW: 60, Watchdog: true, WatchdogK: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addApps(t, ex, f)
	if err := ex.SetSchedule(overCapSchedule(f)); err != nil {
		t.Fatal(err)
	}

	var engagedAt int = -1
	for i := 0; i < 40; i++ {
		s, err := ex.Step(0.1)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if engagedAt < 0 && ex.WatchdogEngaged() {
			engagedAt = i
		}
		if engagedAt >= 0 && i > engagedAt && ex.WatchdogEngaged() && s.GridW > 60+capSlack {
			t.Fatalf("step %d: engaged watchdog left draw at %.1f W over the 60 W cap", i, s.GridW)
		}
	}
	if engagedAt < 0 {
		t.Fatal("watchdog never engaged on a persistently over-cap schedule")
	}
	if ex.WatchdogEngages() < 1 {
		t.Fatal("engage counter not incremented")
	}
	if got := ex.MaxBreachRun(); got > 3 {
		t.Fatalf("breach run reached %d consecutive intervals, watchdog K is 3", got)
	}
	if ex.CapBreachSteps() < 3 {
		t.Fatalf("breach steps %d, want >= K", ex.CapBreachSteps())
	}
	if ex.FaultLog().Count("watchdog-engage") < 1 {
		t.Fatal("engagement not logged")
	}
}

func TestWatchdogReleasesAfterCleanRun(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	ex, err := NewExecutor(Config{HW: f.hw, CapW: 60, Watchdog: true, WatchdogK: 3, WatchdogRecoveryS: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addApps(t, ex, f)
	if err := ex.SetSchedule(overCapSchedule(f)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := ex.Step(0.1); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	log := ex.FaultLog()
	if log.Count("watchdog-engage") < 1 {
		t.Fatal("watchdog never engaged")
	}
	// A 60 W cap is below the two apps' knob floor, so the clamp suspends
	// everything, the draw falls to idle, and K clean intervals later the
	// watchdog must hand control back and start the recovery ramp.
	if log.Count("watchdog-release") < 1 {
		t.Fatal("watchdog never released despite clean intervals under clamp")
	}
	if ex.MaxBreachRun() > 3 {
		t.Fatalf("breach run reached %d with K=3", ex.MaxBreachRun())
	}
}

func TestWatchdogQuietWhenUnderCap(t *testing.T) {
	f := newFixture(t, "STREAM")
	ex, err := NewExecutor(Config{HW: f.hw, CapW: 200, Watchdog: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addApps(t, ex, f)
	if err := ex.SetSchedule(overCapSchedule(f)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := ex.Step(0.1); err != nil {
			t.Fatal(err)
		}
	}
	if ex.WatchdogEngages() != 0 || ex.CapBreachSteps() != 0 {
		t.Fatalf("watchdog acted under a generous cap: engages=%d breaches=%d",
			ex.WatchdogEngages(), ex.CapBreachSteps())
	}
	if evs := ex.FaultEvents(); len(evs) != 0 {
		t.Fatalf("unexpected events on a healthy run: %v", evs)
	}
}

func TestFaultFreePathHasNoLog(t *testing.T) {
	ex, f := newExecFixture(t)
	addApps(t, ex, f)
	if ex.FaultLog() != nil {
		t.Fatal("plain executor allocated a fault log")
	}
	if evs := ex.FaultEvents(); evs != nil {
		t.Fatalf("plain executor reports events: %v", evs)
	}
}

// A fault config with every rate zero must leave the executor
// bit-identical to one with no fault config at all.
func TestZeroRateConfigIsIdentical(t *testing.T) {
	run := func(fc *faults.Config) []Sample {
		f := newFixture(t, "STREAM", "kmeans")
		ex, err := NewExecutor(Config{HW: f.hw, CapW: 100, Faults: fc}, nil)
		if err != nil {
			t.Fatal(err)
		}
		addApps(t, ex, f)
		if err := ex.SetSchedule(overCapSchedule(f)); err != nil {
			t.Fatal(err)
		}
		out := make([]Sample, 300)
		for i := range out {
			s, err := ex.Step(0.01)
			if err != nil {
				t.Fatal(err)
			}
			s.AppW = slices.Clone(s.AppW) // valid only until the next step
			out[i] = s
		}
		return out
	}
	plain := run(nil)
	zero := run(&faults.Config{Seed: 99})
	for i := range plain {
		a, b := plain[i], zero[i]
		if a.T != b.T || a.ServerW != b.ServerW || a.GridW != b.GridW || a.SoC != b.SoC {
			t.Fatalf("step %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.AppW {
			if a.AppW[j] != b.AppW[j] {
				t.Fatalf("step %d app %d draw diverged: %g vs %g", i, j, a.AppW[j], b.AppW[j])
			}
		}
	}
}
