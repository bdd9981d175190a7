package workload

import (
	"math"
	"math/rand"
	"testing"

	"powerstruggle/internal/simhw"
)

func TestEnumKnobsCoversTheLadder(t *testing.T) {
	cfg := simhw.DefaultConfig()
	knobs := EnumKnobs(cfg, 6)
	if want := 9 * 6 * 8; len(knobs) != want {
		t.Fatalf("EnumKnobs produced %d settings, want %d", len(knobs), want)
	}
	seen := make(map[Knobs]bool, len(knobs))
	for _, k := range knobs {
		if seen[k] {
			t.Fatalf("duplicate setting %v", k)
		}
		seen[k] = true
	}
	if got := len(EnumKnobs(cfg, 3)); got != 9*3*8 {
		t.Errorf("EnumKnobs(3 cores) = %d settings, want %d", got, 9*3*8)
	}
}

func TestKnobsClamp(t *testing.T) {
	cfg := simhw.DefaultConfig()
	k := Knobs{FreqGHz: 5, Cores: 99, MemWatts: 0.5}.Clamp(cfg, 4)
	if k.FreqGHz != cfg.FreqMaxGHz || k.Cores != 4 || k.MemWatts != cfg.MemMinWatts {
		t.Errorf("Clamp = %v", k)
	}
	k = Knobs{FreqGHz: 0, Cores: 0, MemWatts: 99}.Clamp(cfg, 6)
	if k.FreqGHz != cfg.FreqMinGHz || k.Cores != 1 || k.MemWatts != cfg.MemMaxWatts {
		t.Errorf("Clamp = %v", k)
	}
}

func TestCurveParetoInvariants(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, err := NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lib.Apps() {
		for _, c := range []*Curve{OptimalCurve(cfg, p), RAPLCurve(cfg, p)} {
			pts := c.Points()
			if len(pts) == 0 {
				t.Fatalf("%s: empty curve", p.Name)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].PowerW <= pts[i-1].PowerW {
					t.Fatalf("%s: power not increasing at point %d", p.Name, i)
				}
				if pts[i].Perf <= pts[i-1].Perf {
					t.Fatalf("%s: perf not increasing at point %d", p.Name, i)
				}
			}
			if c.MinPower() != pts[0].PowerW || c.MaxPower() != pts[len(pts)-1].PowerW {
				t.Fatalf("%s: Min/MaxPower disagree with points", p.Name)
			}
		}
	}
}

func TestCurveAtMatchesBruteForce(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	p := lib.MustApp("BFS")
	c := OptimalCurve(cfg, p)
	pts := c.Points()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		budget := rng.Float64() * 30
		// Brute force over steady points plus run/suspend duty rays of
		// unaffordable points.
		best := -1.0
		for _, pt := range pts {
			if pt.PowerW <= budget {
				if pt.Perf > best {
					best = pt.Perf
				}
			} else if budget > 0 {
				if v := budget / pt.PowerW * pt.Perf; v > best {
					best = v
				}
			}
		}
		got, ok := c.At(budget)
		if best < 0 {
			if ok {
				t.Fatalf("At(%g) returned a point despite none affordable", budget)
			}
			continue
		}
		if !ok || math.Abs(got.Perf-best) > 1e-12 {
			t.Fatalf("At(%g) = %v (ok=%v), want perf %g", budget, got, ok, best)
		}
		if got.PowerW > budget+1e-12 {
			t.Fatalf("At(%g) returned unaffordable point %v", budget, got)
		}
	}
}

func TestOptimalDominatesEnforcementCurves(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	avg := AverageCurve(cfg, lib.Apps())
	for _, p := range lib.Apps() {
		opt := OptimalCurve(cfg, p)
		rapl := RAPLCurve(cfg, p)
		shaped := ShapedCurve(cfg, p, avg)
		for w := 2.0; w <= 30; w += 1 {
			o := opt.PerfAt(w)
			if r := rapl.PerfAt(w); r > o+1e-2 {
				t.Fatalf("%s: RAPL curve beats optimal at %g W (%g > %g)", p.Name, w, r, o)
			}
			if s := shaped.PerfAt(w); s > o+1e-2 {
				t.Fatalf("%s: shaped curve beats optimal at %g W (%g > %g)", p.Name, w, s, o)
			}
		}
	}
}

func TestRAPLCurveIdleInjection(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	p := lib.MustApp("STREAM")
	c := RAPLCurve(cfg, p)
	// Below the DVFS floor the curve must still be runnable with a
	// duty fraction < 1.
	pt, ok := c.At(5)
	if !ok {
		t.Fatal("RAPL curve unrunnable at 5 W despite idle injection")
	}
	if pt.DutyFrac >= 1 {
		t.Errorf("5 W point has duty %g, want < 1 (forced idling)", pt.DutyFrac)
	}
	if pt.PowerW > 5+1e-9 {
		t.Errorf("5 W point draws %g", pt.PowerW)
	}
	// RAPL keeps all entitled cores and an uncapped channel.
	if pt.Knobs.Cores != p.MaxCores || pt.Knobs.MemWatts != cfg.MemMaxWatts {
		t.Errorf("RAPL point reshaped knobs: %v", pt.Knobs)
	}
}

func TestCurveFromOracleEvalMatchesOptimal(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	p := lib.MustApp("facesim")
	opt := OptimalCurve(cfg, p)
	ev := CurveFromEval(cfg, p.MaxCores, OracleEval(cfg, p))
	for w := 3.0; w <= 28; w += 0.5 {
		if a, b := opt.PerfAt(w), ev.PerfAt(w); math.Abs(a-b) > 1e-12 {
			t.Fatalf("oracle-eval curve diverges at %g W: %g vs %g", w, a, b)
		}
	}
}

func TestMarginalNonNegative(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	c := OptimalCurve(cfg, lib.MustApp("SSSP"))
	for w := 0.0; w < 30; w += 0.25 {
		if m := c.Marginal(w, 0.5); m < 0 {
			t.Fatalf("negative marginal utility %g at %g W", m, w)
		}
	}
	if c.Marginal(10, 0) != 0 {
		t.Error("zero-step marginal should be 0")
	}
}

func TestAverageCurveIsAPlausibleMiddle(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	avg := AverageCurve(cfg, lib.Apps())
	if avg.Len() == 0 {
		t.Fatal("empty average curve")
	}
	// At any budget, the average curve's perf sits within the envelope
	// of the per-application optima.
	for w := 5.0; w <= 25; w += 2.5 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range lib.Apps() {
			v := OptimalCurve(cfg, p).PerfAt(w)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		got := avg.PerfAt(w)
		if got > hi+1e-9 {
			t.Fatalf("average curve above every application at %g W (%g > %g)", w, got, hi)
		}
	}
	if AverageCurve(cfg, nil).Len() != 0 {
		t.Error("average of no applications is non-empty")
	}
}

func TestShapedCurveDutyWithinBounds(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, _ := NewLibrary(cfg)
	avg := AverageCurve(cfg, lib.Apps())
	for _, p := range lib.Apps() {
		c := ShapedCurve(cfg, p, avg)
		for _, pt := range c.Points() {
			if pt.DutyFrac <= 0 || pt.DutyFrac > 1 {
				t.Fatalf("%s: duty %g outside (0, 1]", p.Name, pt.DutyFrac)
			}
		}
	}
}
