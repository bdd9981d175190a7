package accountant

import (
	"fmt"
	"reflect"
	"testing"

	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

// refLog is the append-and-shift log the rings replaced, kept as their
// reference.
type refLog struct {
	entries []Event
	max     int
	dropped int
}

func (l *refLog) push(e Event) {
	l.entries = append(l.entries, e)
	if l.max > 0 && len(l.entries) > l.max {
		n := len(l.entries) - l.max
		l.entries = append(l.entries[:0], l.entries[n:]...)
		l.dropped += n
	}
}

func (l *refLog) slice() []Event { return append([]Event(nil), l.entries...) }

func (l *refLog) last() Event {
	if len(l.entries) == 0 {
		return Event{}
	}
	return l.entries[len(l.entries)-1]
}

// TestRingMatchesShiftingLog checks every read of the ring against the
// reference after every push, across several wraps of each bound.
func TestRingMatchesShiftingLog(t *testing.T) {
	for _, max := range []int{-1, 1, 3, 4096} {
		r, ref := newRing[Event](max), &refLog{max: max}
		pushes := 3*max + 5
		if max < 0 {
			pushes = 300
		}
		check := func(after int) {
			if got, want := r.slice(), ref.slice(); !reflect.DeepEqual(got, want) {
				t.Fatalf("max %d after %d pushes: slice %v, reference %v", max, after, got, want)
			}
			if got, want := r.last(), ref.last(); got != want {
				t.Fatalf("max %d after %d pushes: last %+v, reference %+v", max, after, got, want)
			}
			if r.dropped != ref.dropped {
				t.Fatalf("max %d after %d pushes: dropped %d, reference %d", max, after, r.dropped, ref.dropped)
			}
			if max > 0 && cap(r.buf) > max {
				t.Fatalf("max %d after %d pushes: capacity %d", max, after, cap(r.buf))
			}
		}
		check(0)
		for i := 0; i < pushes; i++ {
			e := Event{T: float64(i), Kind: EventKind(i % 4), App: fmt.Sprint("app", i), CapW: float64(100 - i%30)}
			r.push(e)
			ref.push(e)
			// A long ring is checked around each wrap and at a stride.
			if n := i + 1; max < 64 || n%max <= 2 || n%max >= max-2 || n%97 == 0 {
				check(n)
			}
		}
	}
}

// TestSimBoundedLogsKeepTheNewest: a Sim with bounded logs reads the
// newest entries of an unbounded twin's, and counts the rest as dropped.
func TestSimBoundedLogsKeepTheNewest(t *testing.T) {
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		t.Fatal(err)
	}
	run := func(max int) *Sim {
		sim, err := NewSim(Config{
			HW: hw, Policy: policy.AppResAware, Library: lib,
			InitialCapW: 100, ReallocSeconds: 0.4, SampleEvery: 0.25,
			MaxEvents: max, MaxSamples: max,
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = sim.AddArrival(0, lib.MustApp("STREAM"), 0)
		_ = sim.AddArrival(1, lib.MustApp("kmeans"), 0)
		for i, capW := range []float64{90, 80, 95, 85} {
			_ = sim.AddCapChange(float64(2+i), capW)
		}
		if err := sim.Run(8); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	all := run(-1)
	if all.EventsDropped() != 0 || all.SamplesDropped() != 0 {
		t.Fatalf("unbounded logs dropped %d events, %d samples", all.EventsDropped(), all.SamplesDropped())
	}
	events, samples := all.Events(), all.Samples()
	for _, max := range []int{1, 3} {
		sim := run(max)
		if got, want := sim.Events(), events[len(events)-max:]; !reflect.DeepEqual(got, want) {
			t.Errorf("max %d: events %+v, want the newest %+v", max, got, want)
		}
		if got, want := sim.EventsDropped(), len(events)-max; got != want {
			t.Errorf("max %d: %d events dropped, want %d", max, got, want)
		}
		if got, want := sim.Samples(), samples[len(samples)-max:]; !reflect.DeepEqual(got, want) {
			t.Errorf("max %d: samples differ from the newest of the unbounded log", max)
		}
		if got, want := sim.SamplesDropped(), len(samples)-max; got != want {
			t.Errorf("max %d: %d samples dropped, want %d", max, got, want)
		}
		if !reflect.DeepEqual(sim.LastSample(), all.LastSample()) {
			t.Errorf("max %d: last sample differs", max)
		}
	}
}
