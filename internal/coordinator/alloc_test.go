package coordinator

import (
	"testing"

	"powerstruggle/internal/workload"
)

// cycleSchedule time-multiplexes a two-application fixture: application
// 0 alone, then both, then both suspended with the sockets in PC6 — so a
// period covers resumes, suspends, sleep and wake.
func cycleSchedule(f *fixture) Schedule {
	k0 := SegKnob{Knobs: f.profs[0].NoCapKnobs(f.hw), Duty: 1}
	k1 := SegKnob{Knobs: f.profs[1].NoCapKnobs(f.hw), Duty: 0.5}
	return Schedule{PeriodS: 0.3, Segments: []Segment{
		{Seconds: 0.1, Run: map[int]SegKnob{0: k0}},
		{Seconds: 0.1, Run: map[int]SegKnob{0: k0, 1: k1}},
		{Seconds: 0.1, Sleep: true},
	}}
}

// TestExecutorStepAllocs is the counted gate on the executor's 10 ms
// step: once warm, a fault-free Step or Idle allocates nothing — the
// effective-run vector and Sample.AppW are executor-owned buffers. No
// wall clock, so it holds on a loaded CI box.
func TestExecutorStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the product's")
	}
	ex, f := newExecFixture(t)
	addApps(t, ex, f)
	if err := ex.SetSchedule(cycleSchedule(f)); err != nil {
		t.Fatal(err)
	}
	// Warm: the heartbeat windows reach their steady length.
	for i := 0; i < 1000; i++ {
		if _, err := ex.Step(0.01); err != nil {
			t.Fatal(err)
		}
	}
	for name, op := range map[string]func(float64) (Sample, error){"Step": ex.Step, "Idle": ex.Idle} {
		objects := testing.AllocsPerRun(300, func() {
			if _, err := op(0.01); err != nil {
				t.Fatal(err)
			}
		})
		if objects != 0 {
			t.Errorf("a warm fault-free %s allocates %.1f objects, want 0", name, objects)
		}
	}
}

// TestRunnerSamplesOwnAppW holds Runner to cloning the executor's reused
// AppW buffer: every recorded sample's draws must still add up to its
// server draw after the run has stepped past it.
func TestRunnerSamplesOwnAppW(t *testing.T) {
	f := newFixture(t, "STREAM", "kmeans")
	r := Runner{Config: Config{HW: f.hw, CapW: 200}, Profiles: f.profs}
	for _, p := range f.profs {
		inst, err := workload.NewInstance(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.Instances = append(r.Instances, inst)
	}
	res, err := r.Run(cycleSchedule(f), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 100 {
		t.Fatalf("%d samples, want one per 10 ms step", len(res.Samples))
	}
	for i, s := range res.Samples {
		serverW, anyRun := f.hw.PIdleWatts, false
		for _, w := range s.AppW {
			if w > 0 {
				anyRun = true
				serverW += w
			}
		}
		if anyRun {
			serverW += f.hw.PCmWatts
		}
		if serverW != s.ServerW {
			t.Fatalf("sample %d at %.2f s: AppW %v sums to %g W, recorded ServerW %g W", i, s.T, s.AppW, serverW, s.ServerW)
		}
	}
}

// BenchmarkExecutorStep times one warm fault-free 10 ms executor step of
// a time-multiplexed two-application schedule.
func BenchmarkExecutorStep(b *testing.B) {
	f := newFixture(b, "STREAM", "kmeans")
	ex, err := NewExecutor(Config{HW: f.hw, CapW: 100}, nil)
	if err != nil {
		b.Fatal(err)
	}
	addApps(b, ex, f)
	if err := ex.SetSchedule(cycleSchedule(f)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Step(0.01); err != nil {
			b.Fatal(err)
		}
	}
}
