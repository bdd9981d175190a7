package ctrlplane

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"powerstruggle/internal/cluster"
)

// fakeBackend is a linear server: perf = cap/100, draw = 0.9*cap.
type fakeBackend struct {
	mu      sync.Mutex
	applied []float64
	failing bool
}

func (f *fakeBackend) Apply(capW float64) (float64, float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return 0, 0, fmt.Errorf("backend down")
	}
	f.applied = append(f.applied, capW)
	return capW / 100, capW * 0.9, nil
}
func (f *fakeBackend) SoC() float64        { return 0.5 }
func (f *fakeBackend) IdleFloorW() float64 { return 10 }
func (f *fakeBackend) NameplateW() float64 { return 100 }
func (f *fakeBackend) UtilityCurve() ([]cluster.CapPoint, error) {
	// On the DP's grid: point k sits at floor + k*ServerCapStepW.
	var curve []cluster.CapPoint
	for cap := f.IdleFloorW(); cap <= f.NameplateW(); cap += cluster.ServerCapStepW {
		curve = append(curve, cluster.CapPoint{CapW: cap, Perf: cap / 100, GridW: cap * 0.9})
	}
	return curve, nil
}
func (f *fakeBackend) applyCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.applied)
}

// assign builds an epoch-1 grant minted at trace time t on a protocol
// clock of ivS seconds per interval, with one interval of lease: it
// lapses ivS seconds after t unless renewed.
func assign(seq uint64, t, capW, ivS float64) AssignRequest {
	return AssignRequest{V: ProtocolV, Epoch: 1, Seq: seq, Server: 0, T: t, CapW: capW,
		Iv: uint64(t/ivS) + 1, LeaseIv: 1, IvS: ivS}
}

// renew builds an epoch-1 one-interval renewal minted in interval iv,
// arriving at trace time t.
func renew(iv uint64, t, ivS float64) LeaseRequest {
	return LeaseRequest{V: ProtocolV, Epoch: 1, Server: 0, T: t, Iv: iv, LeaseIv: 1, IvS: ivS}
}

// A duplicated or reordered assign (Seq not newer) must be acknowledged
// without touching the backend — the idempotency the soak's
// network-level duplication leans on.
func TestAgentSeqDedup(t *testing.T) {
	be := &fakeBackend{}
	a, err := NewAgent(AgentConfig{ID: 0, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	boot := be.applyCount() // the boot fence

	resp, err := a.Assign(assign(5, 0, 80, 10))
	if err != nil || !resp.Applied || resp.CapW != 80 {
		t.Fatalf("first assign: %+v, %v", resp, err)
	}
	for _, seq := range []uint64{5, 4, 1} {
		resp, err := a.Assign(assign(seq, 1, 30, 10))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Applied {
			t.Fatalf("stale seq %d applied", seq)
		}
		if resp.CapW != 80 {
			t.Fatalf("stale seq %d changed cap to %g", seq, resp.CapW)
		}
	}
	if got := be.applyCount() - boot; got != 1 {
		t.Fatalf("backend applied %d times, want 1", got)
	}
	if a.StaleDrops() != 3 {
		t.Fatalf("staleDrops = %d, want 3", a.StaleDrops())
	}

	// A misdirected assign is refused outright.
	bad := assign(9, 2, 50, 10)
	bad.Server = 7
	if _, err := a.Assign(bad); err == nil {
		t.Fatal("assign for another server accepted")
	}
}

// A lapsed draw lease must fence the agent to its fail-safe cap, and
// only a fresh assign may unfence it.
func TestAgentLeaseFence(t *testing.T) {
	be := &fakeBackend{}
	a, err := NewAgent(AgentConfig{ID: 0, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Fenced() {
		t.Fatal("agent must boot fenced")
	}
	if _, err := a.Assign(assign(1, 100, 80, 10)); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() || a.GridW() != 72 {
		t.Fatalf("after grant: fenced=%v grid=%g", a.Fenced(), a.GridW())
	}
	// Within the lease: no fence.
	if err := a.Tick(109.9); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() {
		t.Fatal("fenced before the lease lapsed")
	}
	// A renewal from the next interval extends the lease past the
	// original expiry.
	if _, err := a.Renew(renew(12, 110, 10)); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(119.9); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() {
		t.Fatal("fenced despite renewal")
	}
	// Lapse: fence to the zero-watt fail-safe.
	if err := a.Tick(120); err != nil {
		t.Fatal(err)
	}
	if !a.Fenced() || a.CapW() != 0 || a.GridW() != 0 {
		t.Fatalf("after lapse: fenced=%v cap=%g grid=%g", a.Fenced(), a.CapW(), a.GridW())
	}
	if a.Fences() != 1 {
		t.Fatalf("fences = %d, want 1", a.Fences())
	}
	// A renewal cannot resurrect a fenced agent.
	resp, err := a.Renew(renew(13, 121, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Fenced {
		t.Fatal("renew unfenced a fenced agent")
	}
	if err := a.Tick(200); err != nil {
		t.Fatal(err)
	}
	if !a.Fenced() {
		t.Fatal("agent unfenced without an assign")
	}
	// Only an assign restores a budget.
	if _, err := a.Assign(assign(2, 200, 40, 10)); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() || a.CapW() != 40 {
		t.Fatalf("after re-assign: fenced=%v cap=%g", a.Fenced(), a.CapW())
	}
}

// A delayed or duplicated renewal minted in an older interval must not
// move the lease boundary backward — that would spuriously fence a
// healthy agent on its next Tick.
func TestAgentStaleRenewalIgnored(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assign(assign(1, 100, 80, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Renew(renew(12, 105, 10)); err != nil {
		t.Fatal(err)
	}
	// A renewal from interval 10 arrives late; the lease still runs to
	// interval 13, not back to 11.
	resp, err := a.Renew(renew(10, 95, 10))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExpiresIv != 13 {
		t.Fatalf("stale renewal moved expiry to interval %d, want 13", resp.ExpiresIv)
	}
	if err := a.Tick(108); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() {
		t.Fatal("stale renewal rewound the lease clock and fenced a healthy agent")
	}
}

// fanOut must run everything exactly once and never exceed its
// concurrency bound.
func TestFanOutBound(t *testing.T) {
	const n, bound = 64, 5
	var inFlight, peak, runs atomic.Int64
	fanOut(context.Background(), n, bound, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runs.Add(1)
		inFlight.Add(-1)
	})
	if runs.Load() != n {
		t.Fatalf("ran %d of %d", runs.Load(), n)
	}
	if peak.Load() > bound {
		t.Fatalf("peak concurrency %d exceeds bound %d", peak.Load(), bound)
	}
}
