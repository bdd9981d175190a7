package workload

import (
	"reflect"
	"sync"
	"testing"

	"powerstruggle/internal/simhw"
)

// perturbedConfig is DefaultConfig with a hotter core and a wider DRAM
// channel: every curve on it differs from the default platform's.
func perturbedConfig() simhw.Config {
	cfg := simhw.DefaultConfig()
	cfg.CoreDynMaxWatts *= 1.1
	cfg.MemPeakGBs *= 1.2
	return cfg
}

// TestOptimalCurveMemo: a memo hit is the curve an uncached build
// returns, phase-resolved copies hit by value, any key field that
// differs misses, and the memo stays bounded.
func TestOptimalCurveMemo(t *testing.T) {
	for _, cfg := range []simhw.Config{simhw.DefaultConfig(), perturbedConfig()} {
		lib, err := NewLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range lib.Apps() {
			first := OptimalCurve(cfg, p)
			hit := OptimalCurve(cfg, p)
			if hit != first {
				t.Fatalf("%s: second call rebuilt the curve", p.Name)
			}
			if fresh := optimalCurve(cfg, p); !reflect.DeepEqual(*hit, *fresh) {
				t.Fatalf("%s: memoized curve differs from an uncached build", p.Name)
			}
		}
	}

	t.Run("phase-resolved copies hit", func(t *testing.T) {
		cfg := simhw.DefaultConfig()
		lib, err := NewLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lib.WithPhases("kmeans", []Phase{
			{Seconds: 4, MemScale: 1, ActivityScale: 1},
			{Seconds: 6, MemScale: 1.5, ActivityScale: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := p.PhaseAt(5), p.PhaseAt(15) // the second phase, one cycle apart
		if a == b {
			t.Fatal("PhaseAt returned one copy twice; the test needs two")
		}
		if OptimalCurve(cfg, a) != OptimalCurve(cfg, b) {
			t.Error("equal phase-resolved copies missed the memo")
		}
		if OptimalCurve(cfg, p) != OptimalCurve(cfg, lib.MustApp("kmeans")) {
			t.Error("a phase list changed the key; Power and NormRate ignore it")
		}
		if OptimalCurve(cfg, a) == OptimalCurve(cfg, p.PhaseAt(1)) {
			t.Error("two different phases shared a curve")
		}
	})

	t.Run("any key field misses", func(t *testing.T) {
		cfg := simhw.DefaultConfig()
		lib, err := NewLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := lib.MustApp("X264")
		want := OptimalCurve(cfg, base)
		for name, change := range map[string]func(p *Profile){
			"Name":            func(p *Profile) { p.Name += "'" },
			"Class":           func(p *Profile) { p.Class = ClassGraph },
			"BaseRate":        func(p *Profile) { p.BaseRate *= 1.01 },
			"ParallelFrac":    func(p *Profile) { p.ParallelFrac *= 0.99 },
			"MemBytesPerBeat": func(p *Profile) { p.MemBytesPerBeat *= 1.01 },
			"CPUActivity":     func(p *Profile) { p.CPUActivity *= 0.99 },
			"MaxCores":        func(p *Profile) { p.MaxCores-- },
		} {
			p := *base
			change(&p)
			if OptimalCurve(cfg, &p) == want {
				t.Errorf("a profile with a different %s hit the memo", name)
			}
		}
		if OptimalCurve(perturbedConfig(), base) == want {
			t.Error("a different platform hit the memo")
		}
	})

	t.Run("bounded", func(t *testing.T) {
		cfg := simhw.DefaultConfig()
		p := &Profile{Name: "tiny", Class: ClassMedia, BaseRate: 1, ParallelFrac: 0.5,
			MemBytesPerBeat: 0.1, CPUActivity: 0.5, MaxCores: 1}
		for i := 0; i < optimalMemoMax+100; i++ {
			p.BaseRate = 1 + float64(i)
			OptimalCurve(cfg, p)
			optimalMemo.Lock()
			n := len(optimalMemo.curves)
			optimalMemo.Unlock()
			if n > optimalMemoMax {
				t.Fatalf("memo holds %d curves, bound %d", n, optimalMemoMax)
			}
		}
	})
}

// TestOptimalCurveMemoConcurrent: concurrent planners (cluster.Evaluator,
// psd) share the memo; run it under -race.
func TestOptimalCurveMemoConcurrent(t *testing.T) {
	cfgs := []simhw.Config{simhw.DefaultConfig(), perturbedConfig()}
	var profiles [][]*Profile
	var want [][][]Point
	for _, cfg := range cfgs {
		lib, err := NewLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		apps := lib.Apps()
		pts := make([][]Point, len(apps))
		for i, p := range apps {
			pts[i] = optimalCurve(cfg, p).Points()
		}
		profiles = append(profiles, apps)
		want = append(want, pts)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c, cfg := range cfgs {
				for i := range profiles[c] {
					j := (i + g) % len(profiles[c])
					if got := OptimalCurve(cfg, profiles[c][j]).Points(); !reflect.DeepEqual(got, want[c][j]) {
						t.Errorf("goroutine %d: %s curve differs from an uncached build", g, profiles[c][j].Name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkOptimalCurve times the uncached 432-setting Pareto build
// (cold) against a memo hit (warm).
func BenchmarkOptimalCurve(b *testing.B) {
	cfg := simhw.DefaultConfig()
	lib, err := NewLibrary(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := lib.MustApp("kmeans")
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			optimalCurve(cfg, p)
		}
	})
	b.Run("warm", func(b *testing.B) {
		OptimalCurve(cfg, p)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			OptimalCurve(cfg, p)
		}
	})
}
