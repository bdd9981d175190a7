package daemon

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/policy"
)

func TestHealthzHealthy(t *testing.T) {
	d, srv := newTestDaemon(t)
	if err := d.Admit(AdmitRequest{App: "STREAM"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Advance(1); err != nil {
		t.Fatal(err)
	}
	var h Health
	get(t, srv.URL+"/healthz", &h)
	if !h.OK {
		t.Fatalf("healthy daemon reports %+v", h)
	}
	if h.SimSeconds != 1 || h.Apps != 1 || h.CapW != 100 {
		t.Errorf("health snapshot %+v", h)
	}
	if h.Degraded || h.WatchdogEngaged || h.Err != "" {
		t.Errorf("fault fields set on a healthy run: %+v", h)
	}
}

func TestHealthzReportsLatchedError(t *testing.T) {
	d, srv := newTestDaemon(t)
	d.mu.Lock()
	d.advErr = errors.New("boom")
	d.mu.Unlock()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz returned %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q on the 503 body", ct)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.OK || h.Err != "boom" {
		t.Fatalf("latched error not surfaced: %+v", h)
	}
}

func TestFaultsEndpoint(t *testing.T) {
	d, err := New(Config{
		Policy: policy.AppResAware, InitialCapW: 100,
		Faults: &faults.Config{Seed: 3, KnobWriteFailP: 0.5, StuckDVFSP: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	// Empty but present before anything faults.
	var evs []faults.Event
	get(t, srv.URL+"/faults", &evs)
	if evs == nil || len(evs) != 0 {
		t.Fatalf("fresh /faults = %v, want []", evs)
	}

	if err := d.Admit(AdmitRequest{App: "STREAM"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Advance(5); err != nil {
		t.Fatal(err)
	}
	get(t, srv.URL+"/faults", &evs)
	if len(evs) == 0 {
		t.Fatal("no fault events after 5 s at 50% failure rates")
	}
	var h Health
	get(t, srv.URL+"/healthz", &h)
	if h.FaultEvents == 0 {
		t.Fatalf("health counters missed the faults: %+v", h)
	}
}

func TestRecoverTurnsPanicInto500(t *testing.T) {
	h := Recover(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", rec.Code)
	}
}

// The ctrl half of /healthz is one agent snapshot: lease freshness,
// protocol-clock reading and skew, safe-mode ledger and learning state
// all come from the same instant.
func TestHealthzCtrlFields(t *testing.T) {
	d, _, clk := ctrlDaemon(t, CtrlConfig{
		SafeMode: ctrlplane.SafeModeConfig{HoldS: 10, DecayWPerS: 1, FloorW: 66},
		Learn:    &cf.OnlineConfig{Epsilon: 0.5, Seed: 3},
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	healthz := func(ts float64) Health {
		t.Helper()
		clk.set(ts)
		if err := d.Advance(0.1); err != nil {
			t.Fatal(err)
		}
		var h Health
		get(t, srv.URL+"/healthz", &h)
		return h
	}
	h := healthz(0)
	if !h.CtrlEnabled || !h.CtrlFenced || h.CtrlLeased || h.CtrlLeaseExpired || h.CtrlIv != 0 || !h.CtrlLearning {
		t.Fatalf("before any grant: %+v", h)
	}

	ep, err := d.CtrlEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Assign(grant(1, 1, 2, 90)); err != nil {
		t.Fatal(err)
	}
	h = healthz(5)
	if h.CtrlFenced || !h.CtrlLeased || h.CtrlLeaseExpired || h.CtrlLeaseExpiresInS != 15 || h.CtrlIv != 1 {
		t.Fatalf("5 s into a 2×10 s lease: %+v", h)
	}
	// One interval minted over 15 s of wall clock at a 10 s cadence: the
	// coordinator runs half an interval slow.
	clk.set(15)
	if _, err := ep.Renew(renewal(2, 2)); err != nil {
		t.Fatal(err)
	}
	h = healthz(15)
	if h.CtrlIv != 2 || h.CtrlClockSkewIv != 0.5 || h.CtrlLeaseExpiresInS != 20 {
		t.Fatalf("after a late renewal: iv=%d skew=%g expiresIn=%g", h.CtrlIv, h.CtrlClockSkewIv, h.CtrlLeaseExpiresInS)
	}

	h = healthz(35)
	if !h.CtrlFenced || !h.CtrlSafeMode || h.CtrlSafeModeEntries != 1 || h.CtrlFences != 1 ||
		h.CtrlLeased || !h.CtrlLeaseExpired || h.CtrlLeaseExpiresInS != 0 {
		t.Fatalf("after the lease lapsed: %+v", h)
	}
	if h.CtrlSafeModeCapW <= 66 || h.CtrlSafeModeCapW > 90 {
		t.Fatalf("safe-mode cap %g W outside (floor, grant]", h.CtrlSafeModeCapW)
	}
	if !h.CtrlLearning || h.CtrlEpoch != 1 {
		t.Fatalf("learning=%v epoch=%d", h.CtrlLearning, h.CtrlEpoch)
	}
}
