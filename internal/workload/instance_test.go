package workload

import (
	"reflect"
	"testing"

	"powerstruggle/internal/simhw"
)

// TestInstanceOperatingPointMatchesProfile holds the instance's memoized
// operating point to the profile methods it caches, bit for bit: every
// library application plus a phased copy, over the whole knob space, on
// the paper platform and a perturbed one. Each instance is asked about
// both platforms in turn, knob settings repeat and alternate, and the
// phased copy crosses a phase boundary every few steps, so a memo that
// dropped any part of its key would return a stale result.
func TestInstanceOperatingPointMatchesProfile(t *testing.T) {
	perturbed := simhw.DefaultConfig()
	perturbed.DVFSAlpha = 2.4
	perturbed.CoreDynMaxWatts = 2.1
	perturbed.MemPeakGBs = 10.5
	perturbed.MemBWExp = 0.7
	cfgs := []simhw.Config{simhw.DefaultConfig(), perturbed}
	lib, err := NewLibrary(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	phased, err := lib.WithPhases("kmeans", []Phase{
		{Seconds: 0.05, MemScale: 1, ActivityScale: 1},
		{Seconds: 0.07, MemScale: 1.6, ActivityScale: 0.55},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(lib.Apps(), phased) {
		checkOperatingPoints(t, cfgs, p)
	}
}

func checkOperatingPoints(t *testing.T, cfgs []simhw.Config, p *Profile) {
	t.Helper()
	in, err := NewInstance(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The whole socket's knob space, not just the entitlement: settings
	// past MaxCores exercise the clamp inside Rate and MemDrawWatts.
	knobs := EnumKnobs(cfgs[0], cfgs[0].CoresPerSocket)
	if len(knobs) != 432 {
		t.Fatalf("%s: %d knob settings, want 432", p.Name, len(knobs))
	}
	var prevEff *Profile
	prevPhase := -2
	for j, k := range knobs {
		for step, k := range []Knobs{k, k, knobs[(j*7+3)%len(knobs)], k} {
			eff := in.Effective()
			if want := p.PhaseAt(in.BusySeconds()); !reflect.DeepEqual(eff, want) {
				t.Fatalf("%s at %.2f s: Effective %+v, PhaseAt %+v", p.Name, in.BusySeconds(), eff, want)
			}
			phase := p.phaseIndex(in.BusySeconds())
			if phase == prevPhase && eff != prevEff {
				t.Fatalf("%s at %.2f s: Effective rebuilt within phase %d", p.Name, in.BusySeconds(), phase)
			}
			prevEff, prevPhase = eff, phase

			for c, cfg := range cfgs {
				wantRate, wantDraw := eff.Rate(cfg, k), eff.MemDrawWatts(cfg, k)
				// Alternate which result fills the memo first.
				var rate, draw float64
				if (j+step+c)%2 == 0 {
					rate, draw = in.Rate(cfg, k), in.MemDrawWatts(cfg, k)
				} else {
					draw, rate = in.MemDrawWatts(cfg, k), in.Rate(cfg, k)
				}
				if rate != wantRate || draw != wantDraw {
					t.Fatalf("%s %v on platform %d: instance (%.17g, %.17g), profile (%.17g, %.17g)",
						p.Name, k, c, rate, draw, wantRate, wantDraw)
				}
			}
			cfg := cfgs[step%len(cfgs)]
			want := eff.Rate(cfg, k) * 0.01
			if got := in.Advance(cfg, k, true, 0.01); got != want {
				t.Fatalf("%s %v: Advance delivered %.17g, want %.17g", p.Name, k, got, want)
			}
		}
	}
}
