package coordinator

import (
	"testing"

	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

func newExecFixture(t *testing.T) (*Executor, *fixture) {
	t.Helper()
	f := newFixture(t, "STREAM", "kmeans")
	ex, err := NewExecutor(Config{HW: f.hw, CapW: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ex, f
}

func addApps(t testing.TB, ex *Executor, f *fixture) {
	t.Helper()
	for _, p := range f.profs {
		inst, err := workload.NewInstance(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.AddApp(p, inst); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecutorLifecycle(t *testing.T) {
	ex, f := newExecFixture(t)
	if _, err := ex.Step(0.01); err == nil {
		t.Error("Step without a schedule succeeded")
	}
	addApps(t, ex, f)
	if ex.Apps() != 2 {
		t.Fatalf("Apps = %d, want 2", ex.Apps())
	}

	run := map[int]SegKnob{
		0: {Knobs: f.profs[0].NoCapKnobs(f.hw), Duty: 1},
		1: {Knobs: f.profs[1].NoCapKnobs(f.hw), Duty: 1},
	}
	sched := Schedule{PeriodS: 1, Segments: []Segment{{Seconds: 1, Run: run}}}
	if err := ex.SetSchedule(sched); err != nil {
		t.Fatal(err)
	}
	s, err := ex.Step(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.ServerW <= f.hw.PIdleWatts {
		t.Errorf("server draw %g with both applications running", s.ServerW)
	}
	if len(s.AppW) != 2 || s.AppW[0] <= 0 || s.AppW[1] <= 0 {
		t.Errorf("per-app draws %v", s.AppW)
	}

	// Removing an application invalidates the schedule.
	if err := ex.RemoveApp(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Schedule(); ok {
		t.Error("schedule survived a removal")
	}
	if err := ex.RemoveApp(5); err == nil {
		t.Error("removal of unknown index succeeded")
	}
}

func TestExecutorArrivalKeepsOldSchedule(t *testing.T) {
	ex, f := newExecFixture(t)
	inst, _ := workload.NewInstance(f.profs[0], 0)
	if _, err := ex.AddApp(f.profs[0], inst); err != nil {
		t.Fatal(err)
	}
	sched := Schedule{PeriodS: 1, Segments: []Segment{{
		Seconds: 1,
		Run:     map[int]SegKnob{0: {Knobs: f.profs[0].NoCapKnobs(f.hw), Duty: 1}},
	}}}
	if err := ex.SetSchedule(sched); err != nil {
		t.Fatal(err)
	}
	// A newcomer appends; the old schedule remains valid and the
	// newcomer stays suspended.
	inst2, _ := workload.NewInstance(f.profs[1], 0)
	if _, err := ex.AddApp(f.profs[1], inst2); err != nil {
		t.Fatal(err)
	}
	if _, ok := ex.Schedule(); !ok {
		t.Fatal("schedule dropped on arrival")
	}
	s, err := ex.Step(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s.AppW[0] <= 0 {
		t.Error("existing application stopped during arrival")
	}
	if s.AppW[1] != 0 {
		t.Error("newcomer ran before re-allocation")
	}
}

func TestExecutorRejectsBadSchedules(t *testing.T) {
	ex, f := newExecFixture(t)
	addApps(t, ex, f)
	if err := ex.SetSchedule(Schedule{}); err == nil {
		t.Error("empty schedule accepted")
	}
	bad := Schedule{PeriodS: 1, Segments: []Segment{{
		Seconds: 1,
		Run:     map[int]SegKnob{7: {Knobs: workload.MinKnobs(f.hw), Duty: 1}},
	}}}
	if err := ex.SetSchedule(bad); err == nil {
		t.Error("schedule referencing an unknown application accepted")
	}
	zero := Schedule{Segments: []Segment{{Seconds: 0}}}
	if err := ex.SetSchedule(zero); err == nil {
		t.Error("zero-period schedule accepted")
	}
}

func TestExecutorIdle(t *testing.T) {
	ex, f := newExecFixture(t)
	addApps(t, ex, f)
	s, err := ex.Idle(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.ServerW != f.hw.PIdleWatts || s.GridW != f.hw.PIdleWatts {
		t.Errorf("idle draw %g/%g, want the idle floor", s.ServerW, s.GridW)
	}
	if ex.Now() != 0.5 {
		t.Errorf("Now = %g after a 0.5 s idle", ex.Now())
	}
}

func TestExecutorCapUpdate(t *testing.T) {
	ex, _ := newExecFixture(t)
	ex.SetCap(85)
	if ex.Cap() != 85 {
		t.Errorf("Cap = %g after SetCap(85)", ex.Cap())
	}
}

func TestRunnerValidation(t *testing.T) {
	f := newFixture(t, "STREAM")
	r := Runner{Config: Config{HW: f.hw, CapW: 100}}
	if _, err := r.Run(Schedule{}, 1); err == nil {
		t.Error("runner without applications accepted")
	}
	inst, _ := workload.NewInstance(f.profs[0], 0)
	r = Runner{
		Config:    Config{HW: simhw.DefaultConfig(), CapW: 100},
		Profiles:  f.profs,
		Instances: []*workload.Instance{inst},
	}
	if _, err := r.Run(Schedule{}, 1); err == nil {
		t.Error("empty schedule accepted")
	}
}

func TestExecutorHeartbeatsTrackDeliveredRate(t *testing.T) {
	ex, f := newExecFixture(t)
	addApps(t, ex, f)
	run := map[int]SegKnob{
		0: {Knobs: f.profs[0].NoCapKnobs(f.hw), Duty: 1},
		1: {Knobs: f.profs[1].NoCapKnobs(f.hw), Duty: 1},
	}
	sched := Schedule{PeriodS: 1, Segments: []Segment{{Seconds: 1, Run: run}}}
	if err := ex.SetSchedule(sched); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ { // 3 s at 10 ms
		if _, err := ex.Step(0.01); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range f.profs {
		rate, err := ex.HeartbeatRate(i)
		if err != nil {
			t.Fatal(err)
		}
		want := p.NoCapRate(f.hw)
		if rate < want*0.9 || rate > want*1.1 {
			t.Errorf("%s: heartbeat rate %.3f, uncapped model rate %.3f", p.Name, rate, want)
		}
	}
	if _, err := ex.HeartbeatRate(9); err == nil {
		t.Error("rate of unknown application accepted")
	}
}
