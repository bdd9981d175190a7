package faults

import (
	"errors"
	"fmt"
	"testing"

	"powerstruggle/internal/esd"
	"powerstruggle/internal/heartbeat"
	"powerstruggle/internal/simhw"
)

func TestConfigValidateRejectsBadRates(t *testing.T) {
	cases := []Config{
		{KnobWriteFailP: -0.1},
		{StuckDVFSP: 1.5},
		{BeatDropP: 2},
		{DropoutForS: -1},
		{DropoutAtS: -1, DropoutForS: 1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated", i, c)
		}
	}
	if err := (Config{KnobWriteFailP: 0.5, DropoutAtS: 3, DropoutForS: 2}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if (Config{Seed: 42}).Enabled() {
		t.Fatal("seed alone reports enabled")
	}
	for i, c := range []Config{
		{KnobWriteFailP: 0.1}, {StuckDVFSP: 0.1}, {MemDelayP: 0.1},
		{BeatDropP: 0.1}, {SoCMisreadP: 0.1}, {DropoutForS: 1},
	} {
		if !c.Enabled() {
			t.Errorf("case %d: %+v reports disabled", i, c)
		}
	}
}

// A zero probability must not consume the random stream: otherwise
// disabling one fault would reshuffle every other fault's draws.
func TestZeroProbabilityDrawsNothing(t *testing.T) {
	a, err := NewInjector(Config{Seed: 11, KnobWriteFailP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInjector(Config{Seed: 11, KnobWriteFailP: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		// a interleaves disabled draws; b does not.
		a.hit(0)
		a.hit(-1)
		if a.hit(0.5) != b.hit(0.5) {
			t.Fatalf("draw %d diverged after zero-probability hits", i)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	seq := func(seed int64) []bool {
		in, err := NewInjector(Config{Seed: seed, KnobWriteFailP: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = in.hit(0.3)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestLogRingBounding(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Append(Event{T: float64(i), Kind: "k"})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := float64(6 + i); ev.T != want {
			t.Fatalf("event %d has T=%g, want %g (oldest-first order)", i, ev.T, want)
		}
	}
	if l.Total() != 10 {
		t.Fatalf("total %d, want 10", l.Total())
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", l.Dropped())
	}
	if l.Count("k") != 10 {
		t.Fatalf("count %d, want 10", l.Count("k"))
	}
}

func newWrappedServer(t *testing.T, cfg Config) (*Server, *simhw.Server, simhw.SlotID) {
	t.Helper()
	hw, err := simhw.NewServer(simhw.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(inj, hw)
	id, err := srv.Claim(2)
	if err != nil {
		t.Fatal(err)
	}
	return srv, hw, id
}

func TestKnobWriteFailIsTransient(t *testing.T) {
	srv, _, id := newWrappedServer(t, Config{Seed: 1, KnobWriteFailP: 1})
	hw := simhw.DefaultConfig()
	err := srv.SetKnobs(id, hw.FreqMinGHz, 1, hw.MemMinWatts)
	if err == nil {
		t.Fatal("certain knob-write fault did not fail")
	}
	if !IsTransient(err) {
		t.Fatalf("injected failure %v is not transient", err)
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("injected failure %v does not wrap ErrTransient", err)
	}
	if srv.Underlying().FreeCores() == 0 {
		t.Fatal("claim did not pass through")
	}
}

func TestStuckDVFSReportsSuccess(t *testing.T) {
	srv, _, id := newWrappedServer(t, Config{Seed: 1, StuckDVFSP: 1})
	hw := simhw.DefaultConfig()
	// The write must report success while the frequency stays put — the
	// silent failure mode the watchdog exists for.
	if err := srv.SetKnobs(id, hw.FreqMinGHz+2*hw.FreqStepGHz, 1, hw.MemMinWatts); err != nil {
		t.Fatalf("stuck write reported failure: %v", err)
	}
	st, err := srv.Slot(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.FreqGHz != hw.FreqMinGHz {
		t.Fatalf("frequency moved to %.2f despite certain stuck-DVFS fault", st.FreqGHz)
	}
}

func TestDropoutWindow(t *testing.T) {
	srv, hw, id := newWrappedServer(t, Config{Seed: 1, DropoutAtS: 1, DropoutForS: 2})
	cfg := simhw.DefaultConfig()
	if err := srv.SetKnobs(id, cfg.FreqMinGHz, 1, cfg.MemMinWatts); err != nil {
		t.Fatalf("pre-window write failed: %v", err)
	}
	hw.Step(1.5) // into the window
	err := srv.SetRunning(id, true)
	if !errors.Is(err, ErrDropout) {
		t.Fatalf("in-window write got %v, want ErrDropout", err)
	}
	if !IsTransient(err) {
		t.Fatal("dropout not classified transient")
	}
	hw.Step(2.0) // past the window
	if err := srv.SetRunning(id, true); err != nil {
		t.Fatalf("post-window write failed: %v", err)
	}
}

func TestBeatDropSilent(t *testing.T) {
	inj, err := NewInjector(Config{Seed: 1, BeatDropP: 1})
	if err != nil {
		t.Fatal(err)
	}
	mon := heartbeat.NewMonitor()
	hb := NewHeartbeats(inj, mon, nil)
	if err := hb.Register("a", 2); err != nil {
		t.Fatal(err)
	}
	if err := hb.Beat("a", 1.0, 5); err != nil {
		t.Fatalf("dropped beat surfaced an error: %v", err)
	}
	tot, err := hb.Total("a")
	if err != nil {
		t.Fatal(err)
	}
	if tot != 0 {
		t.Fatalf("total %g after certain drop, want 0", tot)
	}
	if inj.Log().Count("beat-drop") != 1 {
		t.Fatal("drop not logged")
	}
}

func TestSoCMisreadReadsZero(t *testing.T) {
	inj, err := NewInjector(Config{Seed: 1, SoCMisreadP: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(inj, raw, nil)
	if got := dev.SoC(); got != 0 {
		t.Fatalf("misread SoC %g, want 0", got)
	}
	if raw.SoC() <= 0 {
		t.Fatal("underlying SoC should be positive")
	}
	// Energy flow does not fault: the brownout guard sees the truth.
	if dev.AvailableJ() != raw.AvailableJ() {
		t.Fatal("AvailableJ did not pass through")
	}
}

func TestWrapperDeterminism(t *testing.T) {
	run := func() []Event {
		srv, hw, id := newWrappedServer(t, Config{Seed: 3, KnobWriteFailP: 0.3, StuckDVFSP: 0.3})
		cfg := simhw.DefaultConfig()
		for i := 0; i < 50; i++ {
			_ = srv.SetKnobs(id, cfg.FreqMinGHz+cfg.FreqStepGHz, 1, cfg.MemMinWatts)
			_ = srv.SetRunning(id, i%2 == 0)
			hw.Step(0.01)
		}
		return srv.inj.Log().Events()
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("identical seeds and operations produced different event logs")
	}
	if len(a) == 0 {
		t.Fatal("no events at 30% fault rates over 100 writes")
	}
}
