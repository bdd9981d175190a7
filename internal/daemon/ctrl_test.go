package daemon

import (
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"powerstruggle/internal/ctrlplane"
)

// ctrlDaemon boots a control-plane daemon (fleet index 0) on an injected
// wall clock (drillClock.set moves it), so lease arithmetic in these
// tests is exact instead of sleep-and-hope, and returns its CtrlEndpoint:
// the surface a listener calls once per batch slot, which these tests
// call in-process with hand-built grants. A daemon over the real wire is
// TestMixedFleetClockParity's and TestMixedFleetLearnedCurveParity's.
func ctrlDaemon(t *testing.T, cfg CtrlConfig) (*Daemon, ctrlplane.CtrlEndpoint, *drillClock) {
	t.Helper()
	d, err := New(Config{Version: "test-build"})
	if err != nil {
		t.Fatal(err)
	}
	clk := &drillClock{}
	cfg.Clock = clk.now
	if err := d.EnableCtrl(cfg); err != nil {
		t.Fatal(err)
	}
	ep, err := d.CtrlEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	return d, ep, clk
}

// grant builds an epoch-1 assign minted in interval iv on a 10 s
// protocol clock.
func grant(seq, iv, leaseIv uint64, capW float64) ctrlplane.AssignRequest {
	return ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: seq, Server: 0,
		CapW: capW, Iv: iv, LeaseIv: leaseIv, IvS: 10}
}

// renewal builds the matching epoch-1 renewal.
func renewal(iv, leaseIv uint64) ctrlplane.LeaseRequest {
	return ctrlplane.LeaseRequest{V: ctrlplane.ProtocolV, Epoch: 1, Server: 0, Iv: iv, LeaseIv: leaseIv, IvS: 10}
}

// The daemon's control surface: assigns apply the cap and dedup by
// sequence, and scrapes report the wire schema with the build version.
// (A listener answers a misdirected entry with an error slot before any
// endpoint sees it: ctrlplane's TestHandlerRouting.)
func TestDaemonCtrlEndpoints(t *testing.T) {
	d, ep, _ := ctrlDaemon(t, CtrlConfig{})

	req := grant(1, 1, 2, 70)
	ack, err := ep.Assign(req)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	if !ack.Applied || ack.Fenced {
		t.Fatalf("assign ack %+v", ack)
	}
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.health().CapW; got != 70 {
		t.Fatalf("cap %g after assign", got)
	}

	// Duplicate sequence: acknowledged, not applied.
	req.CapW = 30
	if ack, err = ep.Assign(req); err != nil {
		t.Fatalf("duplicate assign rejected: %v", err)
	}
	if ack.Applied {
		t.Fatal("duplicate assign applied")
	}

	// Scrape: wire-valid (what a coordinator's decoder checks), versioned,
	// curveless (a live daemon cannot pre-characterize its churning mix).
	rep, err := ep.Scrape(42, true)
	if err == nil {
		err = rep.Validate()
	}
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if rep.Server != 0 || rep.Version != "test-build" || len(rep.UtilityCurve) != 0 {
		t.Fatalf("report %+v", rep)
	}

	// Health carries the version and the ctrl state.
	h := d.health()
	if h.Version != "test-build" || !h.CtrlEnabled {
		t.Fatalf("health %+v", h)
	}
}

// A failed cap application must not consume the sequence number. A 0 W
// cap is wire-valid (replay agents accept it) but the daemon's
// simulation rejects it, so the coordinator gets an error slot and
// retries the same seq — and the retry must apply rather than be
// dropped as stale, or the wrong cap would persist for the rest of the
// run.
func TestDaemonCtrlFailedAssignKeepsSeq(t *testing.T) {
	d, ep, _ := ctrlDaemon(t, CtrlConfig{})
	req := grant(1, 1, 1, 0)
	if _, err := ep.Assign(req); err == nil {
		t.Fatal("0 W assign acknowledged, want an error")
	}
	h := d.health()
	if h.CtrlStaleDrops != 0 {
		t.Fatalf("failed assign counted as a stale drop: %+v", h)
	}

	// The coordinator's retry carries the same seq with a fixed cap.
	req.CapW = 70
	ack, err := ep.Assign(req)
	if err != nil {
		t.Fatalf("retried assign: %v", err)
	}
	if !ack.Applied {
		t.Fatal("retry of a failed assign dropped as stale — the seq was consumed")
	}
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.health().CapW; got != 70 {
		t.Fatalf("cap %g after retried assign, want 70", got)
	}
}

// The daemon's ctrl surface applies the same (epoch, seq) fencing as
// the replay agent: a new epoch's grant applies even with a lower seq,
// and anything from an older epoch is acknowledged without effect —
// including renewals, which must not keep a deposed leader's budget
// alive.
func TestDaemonCtrlEpochFencing(t *testing.T) {
	d, ep, _ := ctrlDaemon(t, CtrlConfig{})

	req := grant(9, 1, 10, 70)
	req.Epoch = 2
	if ack, err := ep.Assign(req); err != nil || !ack.Applied {
		t.Fatalf("epoch-2 grant: %+v, %v", ack, err)
	}

	// A delayed epoch-1 grant with a huge seq bounces.
	ack, err := ep.Assign(grant(999, 1, 10, 95))
	if err != nil {
		t.Fatalf("stale-epoch grant: %v", err)
	}
	if ack.Applied {
		t.Fatal("stale-epoch grant applied")
	}
	h := d.health()
	if h.CtrlEpoch != 2 || h.CtrlEpochDrops != 1 {
		t.Fatalf("health epoch=%d drops=%d, want 2 and 1", h.CtrlEpoch, h.CtrlEpochDrops)
	}

	// An old epoch's renewal answers with the live epoch and extends
	// nothing.
	lr, err := ep.Renew(renewal(2, 10))
	if err != nil {
		t.Fatalf("stale renewal: %v", err)
	}
	if lr.Epoch != 2 {
		t.Fatalf("stale renewal answered epoch %d, want 2", lr.Epoch)
	}
	if d.health().CtrlEpochDrops != 2 {
		t.Fatalf("stale renewal not counted: %+v", d.health())
	}

	// The next leader's first grant carries a lower seq — (epoch, seq)
	// ordering applies it anyway.
	next := grant(1, 3, 10, 60)
	next.Epoch = 3
	if ack, err := ep.Assign(next); err != nil || !ack.Applied {
		t.Fatalf("epoch-3 grant: %+v, %v", ack, err)
	}
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.health().CapW; got != 60 {
		t.Fatalf("cap %g after epoch-3 grant, want 60", got)
	}
}

// A lease that lapses on the daemon's wall clock without renewal must
// fence it to its fail-safe cap on the next advance.
func TestDaemonCtrlLeaseFence(t *testing.T) {
	d, ep, clk := ctrlDaemon(t, CtrlConfig{})
	advance := func(ts float64) Health {
		t.Helper()
		clk.set(ts)
		if err := d.Advance(0.1); err != nil {
			t.Fatal(err)
		}
		return d.health()
	}
	// One 10 s interval of lease, minted in interval 1 at wall time 0.
	if _, err := ep.Assign(grant(1, 1, 1, 90)); err != nil {
		t.Fatalf("assign: %v", err)
	}
	if h := advance(9.9); h.CtrlFenced {
		t.Fatal("fenced before the lease lapsed")
	}

	// A renewal from interval 2 pushes the lapse out to interval 3.
	clk.set(10)
	if lr, err := ep.Renew(renewal(2, 1)); err != nil || lr.Fenced || lr.ExpiresIv != 3 {
		t.Fatalf("renew: %+v, %v", lr, err)
	}
	if h := advance(19.9); h.CtrlFenced {
		t.Fatal("fenced despite the renewal")
	}
	if h := advance(20); !h.CtrlFenced || h.CtrlFences != 1 {
		t.Fatalf("after lapse: %+v", h)
	}
	// The fence is queued like any cap-change event and lands on the
	// next simulation tick.
	if h := advance(20); h.CapW != d.hw.PIdleWatts {
		t.Fatalf("fence cap %g, want the idle floor %g", h.CapW, d.hw.PIdleWatts)
	}

	// Only a fresh assign unfences.
	if ack, err := ep.Assign(grant(2, 3, 1, 80)); err != nil || !ack.Applied {
		t.Fatalf("re-assign: %+v, %v", ack, err)
	}
	if h := advance(20); h.CtrlFenced || h.CapW != 80 {
		t.Fatalf("after re-assign: %+v", h)
	}
}

// A lapsed lease with safe mode enabled must hold the granted cap,
// decay it toward the configured floor on interval boundaries of the
// wall clock, surface the degradation on /healthz, and clear on a fresh
// assign — never cliff to the fence cap.
func TestDaemonCtrlSafeModeDecay(t *testing.T) {
	d, ep, clk := ctrlDaemon(t, CtrlConfig{
		SafeMode: ctrlplane.SafeModeConfig{HoldS: 10, DecayWPerS: 1, FloorW: 66},
	})
	// Two advances per instant: the tick at the end of the first
	// schedules any decay clamp, the second runs the simulation past it.
	advance := func(ts float64) Health {
		t.Helper()
		clk.set(ts)
		for k := 0; k < 2; k++ {
			if err := d.Advance(0.1); err != nil {
				t.Fatal(err)
			}
		}
		return d.health()
	}
	if _, err := ep.Assign(grant(1, 1, 1, 90)); err != nil {
		t.Fatalf("assign: %v", err)
	}
	h := advance(0)
	if !h.CtrlLeased || h.CtrlLeaseExpiresInS != 10 || h.CapW != 90 {
		t.Fatalf("lease freshness after grant: leased=%v expiresIn=%g cap=%g", h.CtrlLeased, h.CtrlLeaseExpiresInS, h.CapW)
	}

	// Lapse: the daemon enters safe mode holding the 90 W grant — the
	// cap must not cliff to the idle-floor fence.
	h = advance(10)
	if !h.CtrlSafeMode || !h.CtrlFenced || h.CtrlSafeModeEntries != 1 {
		t.Fatalf("after lapse: %+v", h)
	}
	if h.CapW != 90 {
		t.Fatalf("held cap %g W right after lapse, want 90", h.CapW)
	}
	if !h.CtrlLeaseExpired || h.CtrlLeaseExpiresInS != 0 {
		t.Fatalf("lease reported fresh (expired=%v expiresIn=%g) after lapsing", h.CtrlLeaseExpired, h.CtrlLeaseExpiresInS)
	}

	// Two whole intervals past the boundary, one past the hold window:
	// 90 − 1·10 = 80 W, and nothing moves mid-interval.
	if h = advance(30); h.CapW != 80 || h.CtrlSafeModeCapW != 80 {
		t.Fatalf("decayed cap %g W (ledger %g), want 80", h.CapW, h.CtrlSafeModeCapW)
	}
	if h = advance(39.9); h.CapW != 80 {
		t.Fatalf("cap %g W drifted mid-interval, want 80", h.CapW)
	}
	// Deep inside the pinned-at-floor regime.
	h = advance(200)
	if h.CapW != 66 || h.CtrlSafeModeCapW != 66 {
		t.Fatalf("decayed cap %g W (ledger %g), want the 66 W floor", h.CapW, h.CtrlSafeModeCapW)
	}
	if !h.CtrlSafeMode {
		t.Fatal("safe mode dropped while still leaderless")
	}

	// A fresh assign restores normal operation and re-arms the lease.
	ack, err := ep.Assign(grant(2, 21, 1, 80))
	if err != nil || !ack.Applied {
		t.Fatalf("re-assign: %+v, %v", ack, err)
	}
	if ack.SafeMode {
		t.Fatal("assign ack still flags safe mode")
	}
	h = advance(200)
	if h.CtrlSafeMode || h.CtrlFenced || h.CapW != 80 {
		t.Fatalf("after re-assign: %+v", h)
	}
	if !h.CtrlLeased || h.CtrlLeaseExpiresInS <= 0 {
		t.Fatalf("lease freshness after re-assign: %+v", h)
	}
}

// A control-plane daemon boots fenced, like every other member: it
// enforces the fence cap — counted by nobody's apportioning, so it must
// be the floor — until the first grant lifts it.
func TestDaemonCtrlBootsFenced(t *testing.T) {
	d, ep, _ := ctrlDaemon(t, CtrlConfig{})
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	h := d.health()
	if !h.CtrlFenced || h.CtrlLeased || h.CtrlLeaseExpired {
		t.Fatalf("fresh daemon: fenced=%v leased=%v expired=%v, want fenced and never leased", h.CtrlFenced, h.CtrlLeased, h.CtrlLeaseExpired)
	}
	if h.CapW != d.hw.PIdleWatts {
		t.Fatalf("fresh daemon enforces %g W, want the %g W fence cap", h.CapW, d.hw.PIdleWatts)
	}
	// The report says so, and so does its read-only JSON
	// rendering on the daemon's HTTP mux (a tickless scrape).
	rep, err := ep.Scrape(0, false)
	if err != nil || !rep.Fenced || rep.CapW != d.hw.PIdleWatts {
		t.Fatalf("fresh daemon's report: %+v, %v", rep, err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	var rendered ctrlplane.Report
	get(t, srv.URL+"/ctrl/report", &rendered)
	if rendered.V != ctrlplane.ProtocolV || !rendered.Fenced || rendered.CapW != rep.CapW {
		t.Fatalf("GET /ctrl/report rendered %+v, the endpoint says %+v", rendered, rep)
	}

	if ack, err := ep.Assign(grant(1, 1, 2, 85)); err != nil || !ack.Applied || ack.Fenced {
		t.Fatalf("first grant: %+v, %v", ack, err)
	}
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	if h := d.health(); h.CtrlFenced || !h.CtrlLeased || h.CapW != 85 {
		t.Fatalf("after the first grant: %+v", h)
	}
}

// A delayed or duplicated renewal must never move a lease boundary
// backward, whatever the member is made of: a renewal minted in an
// interval before the in-force lease's anchor still counts as a clock
// observation but leaves the lease where it was.
func TestStaleIvRenewalKeepsLeaseBoundary(t *testing.T) {
	replay, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{
		ID: 0, Backend: ctrlplane.NewSimBackend(drillEvaluator(t, 1), 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, live, clk := ctrlDaemon(t, CtrlConfig{})
	for _, m := range []struct {
		name string
		ep   ctrlplane.CtrlEndpoint
	}{
		{"replay backend", replay},
		{"daemon backend", live},
	} {
		t.Run(m.name, func(t *testing.T) {
			// Every message carries the trace time the replay agent
			// adopts; the daemon reads the same instant off its own clock.
			at := func(ts float64) float64 { clk.set(ts); return ts }
			req := grant(1, 5, 2, 80)
			req.T = at(0)
			if _, err := m.ep.Assign(req); err != nil {
				t.Fatal(err)
			}
			fresh := renewal(6, 2)
			fresh.T = at(10)
			moved, err := m.ep.Renew(fresh)
			if err != nil || moved.ExpiresIv != 8 {
				t.Fatalf("renewal from interval 6: %+v, %v (want the boundary at 8)", moved, err)
			}
			// The reordered renewal from interval 5 arrives last.
			late := renewal(5, 2)
			late.T = at(10)
			stale, err := m.ep.Renew(late)
			if err != nil {
				t.Fatal(err)
			}
			if stale.ExpiresIv != 8 {
				t.Fatalf("stale renewal moved the lease boundary to interval %d, want 8", stale.ExpiresIv)
			}
			// 15 s on, the effective interval is 7: inside the lease that
			// runs to 8, past the one the stale renewal would have left.
			rep, err := m.ep.Scrape(at(25), true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Fenced {
				t.Fatal("stale renewal shortened a live lease and fenced the member")
			}
			if rep, err = m.ep.Scrape(at(30), true); err != nil || !rep.Fenced {
				t.Fatalf("lease outlived its boundary: %+v, %v", rep, err)
			}
		})
	}
}

// Concurrent assigns, renewals, scrapes and /healthz reads against a
// ticking Advance must neither deadlock (agent lock → daemon lock is
// the only order) nor lose the (epoch, seq) ordering: whatever the
// interleaving, the cap left in force is the highest pair's.
func TestDaemonCtrlConcurrentGrantsWhileAdvancing(t *testing.T) {
	d, _, _ := ctrlDaemon(t, CtrlConfig{})
	ep, err := d.CtrlEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	const grants = 40
	capFor := func(epoch, seq uint64) float64 { return 60 + 10*float64(epoch) + float64(seq%7) }
	var wg sync.WaitGroup
	run := func(n int, f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= n; i++ {
				f(i)
			}
		}()
	}
	for _, epoch := range []uint64{1, 2} {
		run(grants, func(i int) {
			req := grant(uint64(i), uint64(i), 1000, capFor(epoch, uint64(i)))
			req.Epoch = epoch
			if _, err := ep.Assign(req); err != nil {
				t.Error(err)
			}
		})
	}
	run(grants, func(i int) {
		req := renewal(uint64(i), 1000)
		req.Epoch = 2
		if _, err := ep.Renew(req); err != nil {
			t.Error(err)
		}
	})
	run(grants, func(int) {
		if _, err := ep.Scrape(0, true); err != nil {
			t.Error(err)
		}
	})
	run(grants, func(int) {
		var h Health
		get(t, srv.URL+"/healthz", &h)
	})
	run(grants, func(int) {
		if err := d.Advance(0.05); err != nil {
			t.Error(err)
		}
	})
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: concurrent control-plane traffic and Advance did not finish")
	}
	for k := 0; k < 2; k++ {
		if err := d.Advance(0.05); err != nil {
			t.Fatal(err)
		}
	}
	h := d.health()
	if want := capFor(2, grants); h.CapW != want || h.CtrlEpoch != 2 || h.CtrlFenced {
		t.Fatalf("final cap %g W epoch %d fenced=%v, want grant (2, %d)'s %g W", h.CapW, h.CtrlEpoch, h.CtrlFenced, grants, want)
	}
}
