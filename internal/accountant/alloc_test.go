package accountant

import (
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

// maxSteadySecondObjects bounds TestSimRunSteadyAllocs. The measured 208
// are two objects per 10 ms step (the Sample's AppW and the executor's
// effective-run vector) and two per recorded sample (its Apps slice
// growing to two); the bound leaves a few for toolchain drift. Before
// the heartbeat names were cached, formatting them on every step made
// this second allocate 624.
const maxSteadySecondObjects = 220
