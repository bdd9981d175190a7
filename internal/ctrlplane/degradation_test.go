package ctrlplane

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"powerstruggle/internal/faults"
)

// Safe-mode degradation: a lapsed lease must hold the last granted cap
// through the hold window, then decay linearly to the floor — never
// cliff — and a fresh grant must restore normal operation.
func TestAgentSafeModeHoldAndDecay(t *testing.T) {
	be := &fakeBackend{}
	a, err := NewAgent(AgentConfig{
		ID: 0, Backend: be, FenceCapW: 20,
		SafeMode: SafeModeConfig{HoldS: 300, DecayWPerS: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Grant 100 W at t=0 with one 300 s interval of lease: expiry at
	// 300, decay starts at 600 and moves on interval boundaries.
	if _, err := a.Assign(assign(1, 0, 100, 300)); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(200); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() || a.SafeMode() {
		t.Fatal("degraded inside a live lease")
	}
	// Lapse lands in the hold window: the cap must hold, not cliff.
	if err := a.Tick(450); err != nil {
		t.Fatal(err)
	}
	if !a.SafeMode() || !a.Fenced() {
		t.Fatalf("safeMode=%v fenced=%v after lapse", a.SafeMode(), a.Fenced())
	}
	if got := a.CapW(); got != 100 {
		t.Fatalf("cap %g W in the hold window, want the held 100 W", got)
	}
	// 650 is still inside the first whole interval past the hold window.
	if err := a.Tick(650); err != nil {
		t.Fatal(err)
	}
	if got := a.CapW(); got != 100 {
		t.Fatalf("cap %g W before the next interval boundary, want the held 100 W", got)
	}
	// 900 is one whole interval past the hold window: 100 − 0.1·300 = 70 W.
	if err := a.Tick(900); err != nil {
		t.Fatal(err)
	}
	if got := a.CapW(); math.Abs(got-70) > 1e-9 {
		t.Fatalf("cap %g W mid-decay, want 70 W", got)
	}
	// Deep into the decay the cap pins at the floor (FenceCapW, the
	// default FloorW).
	if err := a.Tick(5000); err != nil {
		t.Fatal(err)
	}
	if got := a.CapW(); got != 20 {
		t.Fatalf("cap %g W at the end of decay, want the 20 W floor", got)
	}
	if a.SafeModeEntries() != 1 || a.Fences() != 1 {
		t.Fatalf("entries=%d fences=%d, want 1 and 1", a.SafeModeEntries(), a.Fences())
	}
	rep, err := a.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SafeMode || !rep.Fenced {
		t.Fatalf("report safeMode=%v fenced=%v", rep.SafeMode, rep.Fenced)
	}
	// A fresh grant clears safe mode entirely.
	resp, err := a.Assign(assign(2, 5100, 90, 300))
	if err != nil || !resp.Applied {
		t.Fatalf("re-grant: %+v, %v", resp, err)
	}
	if resp.SafeMode || a.SafeMode() || a.Fenced() || a.CapW() != 90 {
		t.Fatalf("after re-grant: safeMode=%v fenced=%v cap=%g", a.SafeMode(), a.Fenced(), a.CapW())
	}
}

// A held cap already at or below the floor must stay put — decay never
// raises a cap.
func TestAgentSafeModeHeldBelowFloor(t *testing.T) {
	be := &fakeBackend{}
	a, err := NewAgent(AgentConfig{
		ID: 0, Backend: be, FenceCapW: 10,
		SafeMode: SafeModeConfig{DecayWPerS: 1, FloorW: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assign(assign(1, 0, 30, 100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(10000); err != nil {
		t.Fatal(err)
	}
	if got := a.CapW(); got != 30 {
		t.Fatalf("cap %g W, want the held 30 W (below the 50 W floor)", got)
	}
}

// Renewals must not resurrect a safe-mode agent: like a plain fence,
// only a fresh assign restores the budget.
func TestAgentSafeModeRefusesRenewal(t *testing.T) {
	be := &fakeBackend{}
	a, err := NewAgent(AgentConfig{
		ID: 0, Backend: be, SafeMode: SafeModeConfig{DecayWPerS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assign(assign(1, 0, 80, 10)); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(50); err != nil {
		t.Fatal(err)
	}
	if !a.SafeMode() {
		t.Fatal("not in safe mode after lapse")
	}
	resp, err := a.Renew(renew(7, 60, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fenced || resp.ExpiresIv != 0 {
		t.Fatalf("renewal of a safe-mode agent answered %+v", resp)
	}
	if err := a.Tick(70); err != nil {
		t.Fatal(err)
	}
	if !a.SafeMode() {
		t.Fatal("renewal cleared safe mode")
	}
}

// The circuit breaker must stop dialing a blackholed agent after
// BreakerFails consecutive failed scrapes, keep membership expiry on
// schedule, spend exactly one wire attempt on each half-open probe —
// scrape or grant — and close again once a probe answers.
func TestBreakerSkipsBlackholedAgent(t *testing.T) {
	// breakerFleet blackholes agent 2 of a fresh three-agent fleet under a
	// coordinator whose closed-breaker RPCs retry once (two attempts).
	type breakerFleet struct {
		coord *Coordinator
		inj   *faults.NetInjector
		dead  string
	}
	start := func(missK int) breakerFleet {
		flt, err := StartSimFleet(testEvaluator(t, 3, nil), "test")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(flt.Close)
		inj, err := faults.NewNetInjector(faults.NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		coord, err := New(Config{
			Agents: flt.Refs(), LeaseIv: 1, IntervalS: 300,
			MissK: missK, Retries: 1, RPCTimeout: time.Second,
			BreakerFails: 2, BreakerOpenIntervals: 3,
			Transport: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		f := breakerFleet{coord: coord, inj: inj, dead: strings.TrimPrefix(flt.Refs()[2].URL, "tcp://")}
		inj.SetDown(f.dead, true)
		return f
	}
	// step runs interval i and returns it with the wire attempts it spent
	// toward the dead host.
	step := func(f breakerFleet, i int) (StepResult, int) {
		t.Helper()
		before := f.inj.Counts().Blackholed
		res, err := f.coord.Step(context.Background(), float64(i)*300, 600)
		if err != nil {
			t.Fatal(err)
		}
		return res, f.inj.Counts().Blackholed - before
	}

	f := start(2)
	// Two failing intervals trip the breaker; the next three are
	// skipped without a single wire attempt toward the dead host.
	step(f, 0)
	step(f, 1)
	if f.coord.Stats().BreakerTrips != 1 {
		t.Fatalf("trips = %d after %d failures, want 1", f.coord.Stats().BreakerTrips, 2)
	}
	sawSkips := 0
	for i := 2; i < 5; i++ {
		res, attempts := step(f, i)
		sawSkips += res.BreakerSkips
		if res.Alive[2] {
			t.Fatalf("interval %d: dead agent still alive past MissK=2", i)
		}
		if attempts != 0 {
			t.Fatalf("interval %d: open breaker still dialed the dead host (%d attempts)", i, attempts)
		}
	}
	if sawSkips == 0 {
		t.Fatal("open breaker skipped nothing")
	}
	// The half-open scrape probe is one attempt, not Retries+1; it fails,
	// the breaker re-opens, and the expired agent is granted nothing.
	if _, attempts := step(f, 5); attempts != 1 {
		t.Fatalf("half-open scrape probe cost %d wire attempts, want 1", attempts)
	}
	if f.coord.Stats().BreakerTrips != 2 {
		t.Fatalf("trips = %d after a failed probe, want 2", f.coord.Stats().BreakerTrips)
	}
	// Heal; the next half-open probe readmits the agent in one
	// interval and the breaker closes.
	f.inj.SetDown(f.dead, false)
	var back bool
	for i := 6; i < 12; i++ {
		res, _ := step(f, i)
		if res.Alive[2] && res.Granted[2] {
			back = true
			break
		}
	}
	if !back {
		t.Fatal("healed agent never rejoined with a granted budget")
	}
	if f.coord.Stats().BreakerSkips == 0 {
		t.Fatal("lifetime BreakerSkips stayed zero")
	}

	// With membership outlasting the open window, the breaker turns
	// half-open between the phases of interval 4 — its scrape skipped,
	// its grant the probe — and the next scrape probes again: one attempt
	// each, and the failed scrape probe re-opens the breaker so its
	// interval grants nothing.
	f = start(10)
	for i := 0; i < 4; i++ {
		step(f, i)
	}
	res, attempts := step(f, 4)
	if !res.Alive[2] || res.Granted[2] || res.BreakerSkips != 1 || attempts != 1 {
		t.Fatalf("half-open grant probe: alive=%v granted=%v skips=%d attempts=%d, want alive, ungranted, 1 skipped scrape, 1 attempt",
			res.Alive[2], res.Granted[2], res.BreakerSkips, attempts)
	}
	res, attempts = step(f, 5)
	if res.BreakerSkips != 1 || attempts != 1 {
		t.Fatalf("half-open scrape probe: skips=%d attempts=%d, want 1 skipped grant, 1 attempt", res.BreakerSkips, attempts)
	}
}

// A canceled context must abort a step promptly: in-flight attempts
// unblock, no retry budget is burned, and the serialized fan-out
// launches nothing further. Without the cancellation paths this
// configuration would hang for minutes (4 agents × 2 RPCs × 6 attempts
// × 10 s each, serialized by MaxInFlight=1).
func TestStepCancellationPromptness(t *testing.T) {
	// Peers that accept the frame and never answer — the worst case for
	// shutdown promptness. release unblocks them so the listeners can
	// close (cleanups run last-registered first).
	release := make(chan struct{})
	hang := scriptedEndpoint{scrape: func(float64, bool) (Report, error) {
		<-release
		return Report{}, errors.New("released")
	}}
	refs := make([]AgentRef, 4)
	for i := range refs {
		refs[i] = AgentRef{ID: i, URL: serveEndpoints(t, map[int]CtrlEndpoint{i: hang})}
	}
	t.Cleanup(func() { close(release) })
	coord, err := New(Config{
		Agents: refs, LeaseIv: 1, IntervalS: 300,
		MaxInFlight: 1, Retries: 5, RPCTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := coord.Step(ctx, 0, 600); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled step took %v", elapsed)
	}
}
