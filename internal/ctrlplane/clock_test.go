package ctrlplane

import (
	"context"
	"testing"
	"time"

	"powerstruggle/internal/faults"
)

// clockAgent builds an agent for the protocol-clock unit tests: a
// demand backend near the floor so the cap assignments are the only
// thing under test.
func clockAgent(t *testing.T, safe SafeModeConfig) *Agent {
	t.Helper()
	a, err := NewAgent(AgentConfig{ID: 0, Backend: newDemandBackend(50), SafeMode: safe, Version: "clock"})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAgentClockLeaseLapse: an interval lease lapses when the agent's
// effective interval — the highest observed plus locally elapsed
// nominal intervals — reaches the grant boundary. A renewal carrying a
// newer interval moves the boundary.
func TestAgentClockLeaseLapse(t *testing.T) {
	a := clockAgent(t, SafeModeConfig{})
	// Grant at interval 1 with a 2-interval lease at 10 s per interval:
	// the lease lives through intervals 1 and 2, lapsing the moment the
	// effective interval reaches 3 — local time 20 s with no further
	// observations.
	if _, err := a.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0,
		CapW: 80, Iv: 1, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(19.9); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() {
		t.Fatal("interval lease lapsed before the boundary")
	}
	if err := a.Tick(20); err != nil {
		t.Fatal(err)
	}
	if !a.Fenced() {
		t.Fatal("interval lease still live at the grant boundary")
	}

	// A renewal observing interval 2 re-anchors the clock and moves the
	// boundary to interval 4: alive through t=29.9, fenced at t=30.
	b := clockAgent(t, SafeModeConfig{})
	if _, err := b.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0,
		CapW: 80, Iv: 1, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Renew(LeaseRequest{V: ProtocolV, Epoch: 1, Server: 0, T: 10,
		Iv: 2, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := b.Tick(29.9); err != nil {
		t.Fatal(err)
	}
	if b.Fenced() {
		t.Fatal("renewed interval lease lapsed early")
	}
	if err := b.Tick(30); err != nil {
		t.Fatal(err)
	}
	if !b.Fenced() {
		t.Fatal("renewed interval lease outlived its boundary")
	}
	if b.LastIv() != 2 {
		t.Fatalf("observed interval %d, want 2", b.LastIv())
	}
}

// TestAgentClockSkew: the skew gauge measures locally elapsed nominal
// intervals minus coordinator-minted intervals over the same span —
// positive when the coordinator runs slow against the agent's clock.
func TestAgentClockSkew(t *testing.T) {
	a := clockAgent(t, SafeModeConfig{})
	if _, err := a.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0,
		CapW: 80, Iv: 1, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	// One minted interval over 15 local seconds at a 10 s cadence: the
	// coordinator is half an interval slow.
	if _, err := a.Renew(LeaseRequest{V: ProtocolV, Epoch: 1, Server: 0, T: 15,
		Iv: 2, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	if got := a.ClockSkewIv(); got != 0.5 {
		t.Fatalf("skew %g intervals, want 0.5", got)
	}
	// Two minted intervals over 15 further seconds: now it runs fast.
	if _, err := a.Renew(LeaseRequest{V: ProtocolV, Epoch: 1, Server: 0, T: 30,
		Iv: 4, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	if got := a.ClockSkewIv(); got != -0.5 {
		t.Fatalf("skew %g intervals, want -0.5", got)
	}
}

// TestSafeModeDecayIntervalBoundaries: safe-mode decay quantizes on
// interval boundaries — at exact multiples of the interval length it is
// bit-identical with the continuous decay law read at that instant, and
// between boundaries it holds the last boundary's value instead of
// drifting. This is the off-by-one surface of interval decay: the lapse
// instant, the hold window's end, and every decay step must land on the
// same values.
func TestSafeModeDecayIntervalBoundaries(t *testing.T) {
	safe := SafeModeConfig{HoldS: 10, DecayWPerS: 1, FloorW: 50}
	clock := clockAgent(t, safe)
	// 2 intervals of 10 s: the lease lapses at t=20 holding 100 W.
	if _, err := clock.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0,
		CapW: 100, Iv: 1, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	// At every exact interval boundary the quantized decay must agree
	// with the continuous law to the bit: 100 W held through t=30 (lapse
	// 20 + hold 10) then 1 W/s down to the 50 W floor at t=80.
	for _, ts := range []float64{20, 25, 30, 40, 50, 60, 70, 80, 100} {
		if err := clock.Tick(ts); err != nil {
			t.Fatal(err)
		}
		want := safe.CapAt(ts-20, 100)
		if ts == 25 {
			// Mid-interval: the agent holds the boundary value.
			want = 100
		}
		if clock.CapW() != want {
			t.Fatalf("t=%g: cap %g W, continuous decay law %g W", ts, clock.CapW(), want)
		}
	}
	if clock.CapW() != 50 {
		t.Fatalf("decay did not reach the floor: %g W", clock.CapW())
	}

	// Between-boundary quantization, one interval at a time: from t=30
	// the decay input only moves when a whole interval completes.
	c2 := clockAgent(t, safe)
	if _, err := c2.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0,
		CapW: 100, Iv: 1, LeaseIv: 2, IvS: 10}); err != nil {
		t.Fatal(err)
	}
	steps := []struct{ t, want float64 }{
		{20, 100},    // lapse: hold
		{29.99, 100}, // inside the hold window
		{30, 100},    // hold boundary: decay input 10 s, still 100
		{39.99, 100}, // no partial-interval drift
		{40, 90},     // one interval past the hold
		{49.99, 90},
		{50, 80},
	}
	for _, s := range steps {
		if err := c2.Tick(s.t); err != nil {
			t.Fatal(err)
		}
		if c2.CapW() != s.want {
			t.Fatalf("t=%g: clock-mode cap %g W, want %g", s.t, c2.CapW(), s.want)
		}
	}
}

// TestCoordinatorClockRestartRehydration: a restarted clock-mode
// coordinator boots with a zero interval counter and must recover it —
// and its same-epoch sequence — from a majority of agent scrapes before
// granting. Its first post-recovery mint is strictly above everything
// its predecessor issued, and its grants are not stale-dropped.
func TestCoordinatorClockRestartRehydration(t *testing.T) {
	const interval = 300.0
	ev := testEvaluator(t, 3, nil)
	flt, err := StartSimFleet(ev, "clock")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	cfg := Config{
		Agents:    flt.Refs(),
		Strategy:  StrategyUtility,
		LeaseIv:   2,
		IntervalS: interval,
		Seed:      7,
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastIv uint64
	for s := 1; s <= 3; s++ {
		ts := float64(s) * interval
		res, err := coord.Step(context.Background(), ts, 700)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rehydrating && s > 1 {
			t.Fatalf("step %d still rehydrating", s)
		}
		if res.Iv != uint64(s) {
			t.Fatalf("step %d minted interval %d, want %d", s, res.Iv, s)
		}
		lastIv = res.Iv
		if err := flt.Tick(ts); err != nil {
			t.Fatal(err)
		}
	}
	if coord.Stats().Rehydrations != 1 {
		t.Fatalf("boot rehydrations %d, want 1", coord.Stats().Rehydrations)
	}
	coord.Close()

	// Crash-restart behind a full partition: no scrape answers, so the
	// replacement must hold grants — minting now could duplicate an
	// interval its predecessor already issued.
	inj, err := faults.NewNetInjector(faults.NetConfig{Seed: 1, DropReqP: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Transport = inj
	cfg2.Retries = 0
	cfg2.RPCTimeout = 100 * time.Millisecond
	coord2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	res, err := coord2.Step(context.Background(), 4*interval, 700)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rehydrating || res.Iv != 0 {
		t.Fatalf("partitioned restart step did not hold grants: rehydrating=%v iv=%d", res.Rehydrating, res.Iv)
	}
	for i, g := range res.Granted {
		if g {
			t.Fatalf("agent %d granted while rehydrating", i)
		}
	}
	if err := flt.Tick(4 * interval); err != nil {
		t.Fatal(err)
	}

	// Partition heals: one scrape round recovers the counter and the
	// same-epoch sequence, and the very same step mints past both.
	inj.Heal()
	res, err = coord2.Step(context.Background(), 5*interval, 700)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rehydrating || res.Iv != lastIv+1 {
		t.Fatalf("post-recovery mint: rehydrating=%v iv=%d, want %d", res.Rehydrating, res.Iv, lastIv+1)
	}
	if coord2.Iv() != lastIv+1 {
		t.Fatalf("recovered counter %d, want %d", coord2.Iv(), lastIv+1)
	}
	if res.AssignErrs != 0 {
		t.Fatalf("post-recovery grants failed: %d assign errors", res.AssignErrs)
	}
	for i, g := range res.Granted {
		if !g {
			t.Fatalf("agent %d not granted after recovery (stale sequence?)", i)
		}
	}
	for _, a := range flt.Agents {
		if a.StaleDrops() != 0 {
			t.Fatalf("agent %d stale-dropped a post-restart grant: sequence not rehydrated", a.ID())
		}
	}
	if coord2.Stats().Rehydrations != 1 {
		t.Fatalf("restart rehydrations %d, want 1", coord2.Stats().Rehydrations)
	}
}

// TestClockChaosKillRestartSoak is the flat-tier acceptance drill:
// repeated coordinator kill-restarts (including mid-interval restarts
// on an offset cadence) and a coordinator stall window, with the fleet
// draw checked against the cluster cap at every tick and every minted
// interval number checked unique. Run under -race in CI.
func TestClockChaosKillRestartSoak(t *testing.T) {
	const (
		servers  = 4
		interval = 300.0
		capW     = 700.0
	)
	ev := testEvaluator(t, servers, nil)
	flt, err := StartSimFleetOpts(ev, FleetOptions{
		Version:  "clock-soak",
		SafeMode: SafeModeConfig{HoldS: interval, DecayWPerS: 0.5, FloorW: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	cfg := Config{
		Agents:    flt.Refs(),
		Strategy:  StrategyUtility,
		LeaseIv:   2,
		IntervalS: interval,
		Seed:      23,
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { coord.Close() }()

	var lastIv uint64
	restarts := 0
	check := func(ts float64) {
		t.Helper()
		if err := flt.Tick(ts); err != nil {
			t.Fatal(err)
		}
		if draw := flt.FleetGridW(); draw > capW+1e-6 {
			t.Fatalf("t=%g: fleet draws %g W over the %g W cap", ts, draw, capW)
		}
	}
	ts := 0.0
	for s := 1; s <= 40; s++ {
		ts += interval
		switch {
		case s%9 == 4:
			// Kill-restart between intervals.
			coord.Close()
			if coord, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			restarts++
		case s%9 == 7:
			// Kill, then restart mid-interval: the replacement's first
			// step lands half an interval off cadence. It rehydrates from
			// the same scrape round, so whatever it mints must already be
			// unique.
			coord.Close()
			if coord, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			restarts++
			res, err := coord.Step(context.Background(), ts-interval/2, capW)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iv > 0 {
				if res.Iv <= lastIv {
					t.Fatalf("t=%g: restarted coordinator minted interval %d, already used through %d", ts-interval/2, res.Iv, lastIv)
				}
				lastIv = res.Iv
			}
			check(ts - interval/2)
		case s >= 30 && s < 33:
			// Coordinator stall: no steps for three intervals. The
			// agents' protocol clocks keep aging at the nominal cadence
			// and walk into safe-mode decay on their own.
			check(ts)
			continue
		}
		res, err := coord.Step(context.Background(), ts, capW)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iv > 0 {
			if res.Iv <= lastIv {
				t.Fatalf("t=%g: minted interval %d, already used through %d", ts, res.Iv, lastIv)
			}
			lastIv = res.Iv
		}
		check(ts)
		check(ts + interval/2)
	}
	if restarts < 4 {
		t.Fatalf("soak only restarted the coordinator %d times", restarts)
	}
	if lastIv == 0 {
		t.Fatal("soak never minted an interval — clock mode was off")
	}
}

// TestTwoTierClockDrill: the two-tier tree under protocol-clock leases
// survives a global apportioner crash-restart and a shard-leader kill
// with zero invariant violations and no duplicated global intervals
// (the drill itself checks uniqueness and the cap invariant).
func TestTwoTierClockDrill(t *testing.T) {
	res, err := RunTwoTierDrill(TwoTierOptions{
		Shards:            2,
		AgentsPerShard:    3,
		Intervals:         14,
		IntervalS:         300,
		LeaseIv:           2,
		RestartGlobalStep: 6,
		KillLeaderStep:    10,
		KillShard:         1,
		Seed:              31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Stats.Rehydrations != 1 {
		t.Fatalf("restarted global rehydrated %d times, want 1", res.Stats.Rehydrations)
	}
	if res.Failovers == 0 {
		t.Fatal("shard-leader kill produced no failover")
	}
}
