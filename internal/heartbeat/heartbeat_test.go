package heartbeat

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestRegisterValidation(t *testing.T) {
	m := NewMonitor()
	if err := m.Register("", 1); err == nil {
		t.Error("empty name accepted")
	}
	if err := m.Register("a", 0); err == nil {
		t.Error("zero window accepted")
	}
	if err := m.Register("a", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Beat("unknown", 0, 1); err == nil {
		t.Error("beat to unknown producer accepted")
	}
	if _, err := m.Rate("unknown", 0); err == nil {
		t.Error("rate of unknown producer accepted")
	}
	if _, err := m.Total("unknown"); err == nil {
		t.Error("total of unknown producer accepted")
	}
	if err := m.Beat("a", 0, -1); err == nil {
		t.Error("negative beat count accepted")
	}
}

func TestConstantEmitterRate(t *testing.T) {
	m := NewMonitor()
	if err := m.Register("app", 5); err != nil {
		t.Fatal(err)
	}
	// 10 beats/s for 20 s.
	for i := 0; i <= 200; i++ {
		if err := m.Beat("app", float64(i)*0.1, 1); err != nil {
			t.Fatal(err)
		}
	}
	r, err := m.Rate("app", 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-10) > 0.5 {
		t.Errorf("windowed rate = %g, want ~10", r)
	}
	total, _ := m.Total("app")
	if total != 201 {
		t.Errorf("total = %g, want 201", total)
	}
}

func TestWindowForgetsOldBeats(t *testing.T) {
	m := NewMonitor()
	if err := m.Register("app", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Beat("app", 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Beat("app", 10, 1); err != nil {
		t.Fatal(err)
	}
	r, _ := m.Rate("app", 10)
	if math.Abs(r-0.5) > 1e-9 {
		t.Errorf("rate = %g, want 0.5 (burst at t=0 outside the window)", r)
	}
}

func TestTimeMustNotGoBackwards(t *testing.T) {
	m := NewMonitor()
	if err := m.Register("app", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Beat("app", 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Beat("app", 4, 1); err == nil {
		t.Error("backwards beat accepted")
	}
}

func TestReregisterResets(t *testing.T) {
	m := NewMonitor()
	_ = m.Register("app", 1)
	_ = m.Beat("app", 0, 5)
	_ = m.Register("app", 1)
	total, err := m.Total("app")
	if err != nil {
		t.Fatal(err)
	}
	if total != 0 {
		t.Errorf("total after re-registration = %g, want 0", total)
	}
}

func TestUnregister(t *testing.T) {
	m := NewMonitor()
	_ = m.Register("a", 1)
	_ = m.Register("b", 1)
	m.Unregister("a")
	if got := m.Producers(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Producers = %v, want [b]", got)
	}
}

func TestConcurrentProducers(t *testing.T) {
	m := NewMonitor()
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		if err := m.Register(n, 10); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, n := range names {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := m.Beat(n, float64(i)*0.01, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, n := range names {
		total, err := m.Total(n)
		if err != nil {
			t.Fatal(err)
		}
		if total != 500 {
			t.Errorf("%s: total = %g, want 500", n, total)
		}
	}
}

func TestQuickRateMatchesTotalOverWindow(t *testing.T) {
	// For beats all inside the window, rate == sum/window exactly.
	prop := func(counts []uint8) bool {
		m := NewMonitor()
		if err := m.Register("p", 100); err != nil {
			return false
		}
		var sum float64
		for i, c := range counts {
			if i >= 90 {
				break
			}
			v := float64(c)
			sum += v
			if err := m.Beat("p", float64(i), v); err != nil {
				return false
			}
		}
		r, err := m.Rate("p", 90)
		if err != nil {
			return false
		}
		return math.Abs(r-sum/100) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestTrimMatchesFullHistory: across many windows of beats, Rate reads
// bit for bit what a sum over the full history reads, while the kept
// beats stay within twice a window's worth.
func TestTrimMatchesFullHistory(t *testing.T) {
	const window, dt = 2.0, 0.01
	m := NewMonitor()
	if err := m.Register("p", window); err != nil {
		t.Fatal(err)
	}
	var history []beat
	for i := 1; i <= 2000; i++ {
		now := float64(i) * dt
		b := beat{t: now, count: float64(i%7) + 0.1}
		history = append(history, b)
		if err := m.Beat("p", b.t, b.count); err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, h := range history {
			if h.t >= now-window && h.t <= now {
				want += h.count
			}
		}
		want /= window
		if got, err := m.Rate("p", now); err != nil || got != want {
			t.Fatalf("beat %d: rate %v (%v), full history %v", i, got, err, want)
		}
		if kept := len(m.prods["p"].beats); kept > 2*int(window/dt)+2 {
			t.Fatalf("beat %d: %d beats kept for a %g s window", i, kept, window)
		}
	}
}
