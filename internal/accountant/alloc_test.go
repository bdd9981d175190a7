package accountant

import (
	"reflect"
	"testing"

	"powerstruggle/internal/policy"
)

// TestSimRunSteadyAllocs is the counted gate on the paper's loop: a warm
// two-application mediated second, one Sim.Run(1) with no trigger in it,
// allocates a fixed number of objects. No wall clock, so it holds on a
// loaded CI box.
func TestSimRunSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the product's")
	}
	sim, lib := newSim(t, policy.AppResAware, 0)
	_ = sim.AddArrival(0, lib.MustApp("STREAM"), 0)
	_ = sim.AddArrival(0, lib.MustApp("kmeans"), 0)
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	events := len(sim.Events())
	objects := testing.AllocsPerRun(20, func() {
		if err := sim.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if n := len(sim.Events()); n != events {
		t.Fatalf("%d events during the measured seconds: not a steady loop", n-events)
	}
	t.Logf("%.1f objects per mediated second", objects)
	if objects > maxSteadySecondObjects {
		t.Errorf("a steady mediated second allocates %.1f objects, bound %d", objects, maxSteadySecondObjects)
	}
}

// maxSteadySecondObjects bounds TestSimRunSteadyAllocs. The measured 4
// are one object per recorded sample (its Apps slice, sized once; the
// test samples every 0.25 s). A 10 ms step allocates nothing: the
// executor reuses its effective-run and AppW buffers
// (coordinator.TestExecutorStepAllocs). The bound leaves a few for
// toolchain drift.
const maxSteadySecondObjects = 8

// TestSampleReadableDuringRun walks a recorded sample on another
// goroutine while the next Run(1) proceeds. Under -race it fails if a
// step writes memory a published sample still references — the reused
// executor AppW buffer must never leak into one.
func TestSampleReadableDuringRun(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	_ = sim.AddArrival(0, lib.MustApp("STREAM"), 0)
	_ = sim.AddArrival(0, lib.MustApp("kmeans"), 0)
	if err := sim.Run(3); err != nil {
		t.Fatal(err)
	}
	last := sim.LastSample()
	want := append([]AppState(nil), last.Apps...)
	done := make(chan float64)
	go func() {
		var sum float64
		for i := 0; i < 1000; i++ {
			for _, a := range last.Apps {
				sum += a.PowerW + a.BudgetW + a.RateHz
			}
		}
		done <- sum
	}()
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	<-done
	if !reflect.DeepEqual(last.Apps, want) {
		t.Errorf("a sample changed under a later Run: %+v, was %+v", last.Apps, want)
	}
}
