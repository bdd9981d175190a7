package main

import (
	"context"
	"testing"
	"time"

	"powerstruggle/internal/trace"
)

// A cap file sets the cap, never the clock: under a 300 s schedule and
// a 1 ms interval, t still advances by the interval, so lease and
// reclaim windows (counted in -interval seconds) stay whole intervals.
func TestCapFileClockAdvancesByInterval(t *testing.T) {
	caps := []trace.Point{{T: 0, V: 240}, {T: 300, V: 200}, {T: 600, V: 220}}
	var ts, cs []float64
	step := func(_ context.Context, t, cap float64) error {
		ts, cs = append(ts, t), append(cs, cap)
		return nil
	}
	if err := run(caps, 999, time.Millisecond, step, func() {}); err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(caps) {
		t.Fatalf("%d steps for %d cap points", len(ts), len(caps))
	}
	for i := range caps {
		if want := float64(i) * 0.001; ts[i] < want-1e-12 || ts[i] > want+1e-12 {
			t.Errorf("step %d at t=%g, want %g", i, ts[i], want)
		}
		if cs[i] != caps[i].V {
			t.Errorf("step %d cap %g, want %g", i, cs[i], caps[i].V)
		}
	}
}
