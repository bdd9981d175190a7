package ctrlplane

import (
	"context"
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

// startBackendFleet serves one agent per backend, a listener each.
func startBackendFleet(t *testing.T, backends []Backend) []AgentRef {
	t.Helper()
	refs := make([]AgentRef, len(backends))
	for i, be := range backends {
		a, err := NewAgent(AgentConfig{ID: i, Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = AgentRef{ID: i, URL: serveEndpoints(t, map[int]CtrlEndpoint{i: a})}
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

// fenceOnLease is an endpoint shim that fences the agent the moment the
// coordinator's first lease renewal arrives — the race the coordinator
// must survive: an agent that fenced after the scrape answered healthy.
type fenceOnLease struct {
	*Agent
	fenceT float64
	once   sync.Once
}

func (f *fenceOnLease) Renew(req LeaseRequest) (LeaseResponse, error) {
	f.once.Do(func() { _ = f.Agent.Tick(f.fenceT) })
	return f.Agent.Renew(req)
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
	url := serveEndpoints(t, map[int]CtrlEndpoint{0: &fenceOnLease{Agent: a, fenceT: 250}})
	coord, err := New(Config{
		Agents:    []AgentRef{{ID: 0, URL: url}},
		Strategy:  StrategyEqual,
		LeaseIv:   1,
		IntervalS: 300,
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

// Frames over TCP are the only wire: every constructor that takes a
// peer URL refuses one of any other scheme instead of routing it to a
// transport that no longer exists.
func TestNonTCPURLsRefused(t *testing.T) {
	for _, url := range []string{"http://10.0.0.7:8080", "https://10.0.0.7", "10.0.0.7:9000", "tcp://", ""} {
		for what, build := range map[string]func() error{
			"coordinator": func() error {
				_, err := New(Config{Agents: []AgentRef{{ID: 0, URL: url}}, IntervalS: 1})
				return err
			},
			"global": func() error {
				_, err := NewGlobal(GlobalConfig{Shards: []ShardRef{{ID: 0, URLs: []string{"tcp://10.0.0.1:1", url}}}, IntervalS: 1})
				return err
			},
			"quorum election": func() error {
				_, err := NewQuorumElection(QuorumConfig{Voters: []string{"tcp://10.0.0.1:1", url}})
				return err
			},
			"registration": func() error {
				return RegisterRequest{V: ProtocolV, URL: url}.Validate()
			},
		} {
			if err := build(); err == nil || !strings.Contains(err.Error(), "tcp://") {
				t.Errorf("%s accepted url %q (err %v)", what, url, err)
			}
		}
	}
	if err := (RegisterRequest{V: ProtocolV, URL: "tcp://10.0.0.7:9000"}).Validate(); err != nil {
		t.Errorf("tcp:// registration refused: %v", err)
	}
}

// A grant an agent refuses because a newer leader owns it must reach
// the operator: the interval's StepResult carries an error naming the
// agent and both epochs, not just a bumped AssignErrs.
func TestGrantRefusalSurfacesOnStepResult(t *testing.T) {
	agents := make([]*Agent, 2)
	refs := make([]AgentRef, 2)
	for i := range agents {
		a, err := NewAgent(AgentConfig{ID: i, Backend: &fakeBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		refs[i] = AgentRef{ID: i, URL: serveEndpoints(t, map[int]CtrlEndpoint{i: a})}
	}
	// Agent 1 has already applied an epoch-4 leader's grant.
	if _, err := agents[1].Assign(AssignRequest{V: ProtocolV, Epoch: 4, Seq: 1, Server: 1, CapW: 50, Iv: 1, LeaseIv: 9, IvS: 300}); err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{Agents: refs, LeaseIv: 1, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetEpoch(2)
	res, err := coord.Step(context.Background(), 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted[0] || res.Granted[1] || res.AssignErrs != 1 || !res.Deposed {
		t.Fatalf("granted=%v assignErrs=%d deposed=%v, want agent 1 alone refusing", res.Granted, res.AssignErrs, res.Deposed)
	}
	if res.Err == nil {
		t.Fatal("refused grant left StepResult.Err nil")
	}
	for _, want := range []string{"agent 1", "epoch-2", "epoch 4"} {
		if !strings.Contains(res.Err.Error(), want) {
			t.Errorf("StepResult.Err = %q, want it to name %q", res.Err, want)
		}
	}
	if agents[1].CapW() != 50 {
		t.Fatalf("fenced-out grant moved agent 1's cap to %g W", agents[1].CapW())
	}
}
