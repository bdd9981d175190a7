package faults

import (
	"context"
	"errors"
	"testing"
	"time"
)

const testHost = "10.0.0.7:9000"

// exchange runs one injected frame exchange against a counting deliver
// and returns how many times the "server" saw the request and which
// delivery's reply the caller was handed (0 when none).
func exchange(t *testing.T, in *NetInjector, ctx context.Context) (hits, reply int, err error) {
	t.Helper()
	err = in.Do(ctx, testHost, "assign", func() error {
		hits++
		reply = hits
		return nil
	})
	if err != nil {
		reply = 0
	}
	return hits, reply, err
}

func mustInjector(t *testing.T, cfg NetConfig) *NetInjector {
	t.Helper()
	in, err := NewNetInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// A dropped request must never reach the server and must surface as a
// transient error the retry machinery recognizes.
func TestNetInjectorDropRequest(t *testing.T) {
	in := mustInjector(t, NetConfig{Seed: 1, DropReqP: 1})
	hits, _, err := exchange(t, in, context.Background())
	if err == nil {
		t.Fatal("DropReqP=1 let a request through")
	}
	if !IsTransient(err) || !errors.Is(err, ErrNetDrop) {
		t.Fatalf("drop error not transient: %v", err)
	}
	if hits != 0 {
		t.Fatalf("server saw %d requests through a full drop", hits)
	}
	if in.Counts().ReqDrops != 1 {
		t.Fatalf("counts %+v", in.Counts())
	}
}

// A dropped response is the other half of RPC ambiguity: the server
// processes the request, the caller still sees a failure.
func TestNetInjectorDropResponse(t *testing.T) {
	in := mustInjector(t, NetConfig{Seed: 1, DropRespP: 1})
	hits, _, err := exchange(t, in, context.Background())
	if err == nil || !errors.Is(err, ErrNetDrop) {
		t.Fatalf("DropRespP=1 returned a response (err %v)", err)
	}
	if hits != 1 {
		t.Fatalf("server saw %d requests, want 1 (the effect lands)", hits)
	}
}

// A duplicated frame is delivered twice; the caller sees one (the
// second) reply. A failed first delivery does not fail the exchange.
func TestNetInjectorDuplicate(t *testing.T) {
	in := mustInjector(t, NetConfig{Seed: 1, DupP: 1})
	hits, reply, err := exchange(t, in, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hits != 2 || reply != 2 {
		t.Fatalf("duplicated delivery: server saw %d requests, caller got reply %d; want 2 and the 2nd", hits, reply)
	}
	calls := 0
	err = in.Do(context.Background(), testHost, "assign", func() error {
		calls++
		if calls == 1 {
			return errors.New("first delivery lost")
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("duplicate with a failed first delivery: err %v after %d deliveries", err, calls)
	}
}

// A blackholed host fails deterministically until restored, never
// reaches the server, and the counter stops moving after the heal.
func TestNetInjectorBlackhole(t *testing.T) {
	in := mustInjector(t, NetConfig{})
	in.SetDown(testHost, true)
	for i := 0; i < 3; i++ {
		hits, _, err := exchange(t, in, context.Background())
		if err == nil || hits != 0 {
			t.Fatalf("blackholed host reachable (err %v, %d deliveries)", err, hits)
		}
	}
	// Another host is unaffected.
	if err := in.Do(context.Background(), "10.0.0.8:9000", "report", func() error { return nil }); err != nil {
		t.Fatalf("blackhole leaked to another host: %v", err)
	}
	in.SetDown(testHost, false)
	for i := 0; i < 2; i++ {
		if hits, _, err := exchange(t, in, context.Background()); err != nil || hits != 1 {
			t.Fatalf("restored host unreachable: %v (%d deliveries)", err, hits)
		}
	}
	if in.Counts().Blackholed != 3 {
		t.Fatalf("counts %+v", in.Counts())
	}
}

// Heal must stop probabilistic faults mid-run.
func TestNetInjectorHeal(t *testing.T) {
	in := mustInjector(t, NetConfig{Seed: 2, DropReqP: 1})
	if _, _, err := exchange(t, in, context.Background()); err == nil {
		t.Fatal("pre-heal request survived DropReqP=1")
	}
	in.Heal()
	if hits, _, err := exchange(t, in, context.Background()); err != nil || hits != 1 {
		t.Fatalf("post-heal request failed: %v", err)
	}
}

// A delay longer than the attempt's deadline surfaces as the context's
// error without ever delivering — the caller's timeout, not a drop.
func TestNetInjectorDelayHonoursContext(t *testing.T) {
	in := mustInjector(t, NetConfig{Seed: 3, DelayP: 1, DelayMax: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	hits, _, err := exchange(t, in, ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("over-long delay returned %v, want the context deadline", err)
	}
	if hits != 0 {
		t.Fatalf("timed-out delay still delivered %d times", hits)
	}
	if in.Counts().Delays != 1 {
		t.Fatalf("counts %+v", in.Counts())
	}
}

// Config validation refuses out-of-range rates.
func TestNetConfigValidate(t *testing.T) {
	if err := (NetConfig{DropReqP: 1.5}).Validate(); err == nil {
		t.Error("DropReqP 1.5 accepted")
	}
	if err := (NetConfig{DelayMax: -1}).Validate(); err == nil {
		t.Error("negative DelayMax accepted")
	}
	if (NetConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(NetConfig{DupP: 0.1}).Enabled() {
		t.Error("dup-only config reports disabled")
	}
}
