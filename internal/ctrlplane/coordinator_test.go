package ctrlplane

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"powerstruggle/internal/cluster"
)

// curvelessBackend models a live daemon: it cannot pre-characterize its
// churning mix, so it reports no cap-utility curve.
type curvelessBackend struct{ fakeBackend }

func (b *curvelessBackend) UtilityCurve() ([]cluster.CapPoint, error) { return nil, nil }

// floorBackend reports a configurable idle floor.
type floorBackend struct {
	fakeBackend
	floor float64
}

func (b *floorBackend) IdleFloorW() float64 { return b.floor }

// startBackendFleet serves one agent per backend over loopback HTTP.
func startBackendFleet(t *testing.T, backends []Backend) []AgentRef {
	t.Helper()
	refs := make([]AgentRef, len(backends))
	for i, be := range backends {
		a, err := NewAgent(AgentConfig{ID: i, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(a))
		t.Cleanup(srv.Close)
		refs[i] = AgentRef{ID: i, URL: srv.URL}
	}
	return refs
}

// Under StrategyUtility a scraped member with no utility curve — a live
// daemon, which never reports one — must get the documented even-share
// fallback, not a 0 W budget that would fence a healthy fleet to its
// floor.
func TestUtilityEvenShareForCurvelessMembers(t *testing.T) {
	refs := startBackendFleet(t, []Backend{
		&fakeBackend{}, &fakeBackend{}, &curvelessBackend{},
	})
	coord, err := New(Config{Agents: refs, Strategy: StrategyUtility, LeaseIv: 1, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	const capW = 90.0
	res, err := coord.Step(context.Background(), 0, capW)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Budgets[2], capW/3; got != want {
		t.Fatalf("curveless member's budget %g W, want the even share %g W", got, want)
	}
	for i, b := range res.Budgets[:2] {
		if b <= 0 {
			t.Fatalf("curve-bearing member %d got %g W from the DP remainder", i, b)
		}
	}
	var sum float64
	for _, b := range res.Budgets {
		sum += b
	}
	if sum > capW+1e-9 {
		t.Fatalf("budgets sum to %g W over the %g W cap", sum, capW)
	}
	for i, g := range res.Granted {
		if !g {
			t.Fatalf("agent %d's budget not acknowledged", i)
		}
	}
}

// ApportionCurves prices every curve from one common idle floor, so a
// fleet whose members report different floors must fail loudly instead
// of silently computing everyone's budget against the first member's
// floor; an explicit Config.FloorW overrides.
func TestUtilityHeterogeneousFloorsRejected(t *testing.T) {
	refs := startBackendFleet(t, []Backend{
		&floorBackend{floor: 10}, &floorBackend{floor: 25},
	})
	coord, err := New(Config{Agents: refs, Strategy: StrategyUtility, LeaseIv: 1, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Step(context.Background(), 0, 100); err == nil {
		t.Fatal("heterogeneous idle floors apportioned silently")
	}

	override, err := New(Config{Agents: refs, Strategy: StrategyUtility, LeaseIv: 1, IntervalS: 300, FloorW: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := override.Step(context.Background(), 0, 100); err != nil {
		t.Fatalf("explicit FloorW rejected: %v", err)
	}
}

// fenceOnLease is a transport shim that fences the agent the moment the
// coordinator's first lease renewal goes out — the race the coordinator
// must survive: an agent that fenced after the scrape answered healthy.
type fenceOnLease struct {
	agent  *Agent
	fenceT float64
	once   sync.Once
}

func (f *fenceOnLease) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, PathLease) {
		f.once.Do(func() { _ = f.agent.Tick(f.fenceT) })
	}
	return http.DefaultTransport.RoundTrip(r)
}

// A renewal answered by a fenced agent must not count as a grant: a
// fenced agent ignores renewals, so the coordinator falls through to a
// full assignment, which restores the budget in the same control
// interval instead of a full interval later.
func TestRenewalOfFencedAgentFallsThroughToAssign(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(a))
	defer srv.Close()
	coord, err := New(Config{
		Agents:    []AgentRef{{ID: 0, URL: srv.URL}},
		Strategy:  StrategyEqual,
		LeaseIv:   1,
		IntervalS: 300,
		Transport: &fenceOnLease{agent: a, fenceT: 250},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Step(context.Background(), 0, 60); err != nil {
		t.Fatal(err)
	}
	if a.Fenced() {
		t.Fatal("agent fenced after a successful grant")
	}
	// Same budget at t=100: the scrape sees a healthy agent, so the
	// coordinator tries a renewal — and the shim fences the agent first.
	res, err := coord.Step(context.Background(), 100, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted[0] {
		t.Fatal("budget not re-granted after the fence")
	}
	if a.Fenced() || a.CapW() != 60 {
		t.Fatalf("after re-grant: fenced=%v cap=%g, want an unfenced 60 W", a.Fenced(), a.CapW())
	}
}
