package ctrlplane

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"sync/atomic"
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

// A member configured with a trailing slash that announces that same URL
// is the same member at the same place: the re-announce must neither log
// an agent-reregister nor rebuild the fan-out plans.
func TestReannounceOfSlashedURLIsNoReregister(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	url := serveEndpoints(t, map[int]CtrlEndpoint{0: a}) + "/"
	coord, err := New(Config{Agents: []AgentRef{{ID: 0, URL: url}}, Dynamic: true, LeaseIv: 1, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Step(context.Background(), 0, 60); err != nil {
		t.Fatal(err)
	}
	if resp := coord.Register(RegisterRequest{V: ProtocolV, Server: 0, URL: url}); !resp.Accepted {
		t.Fatalf("re-announce refused: %+v", resp)
	}
	res, err := coord.Step(context.Background(), 300, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted[0] {
		t.Fatalf("re-announced agent not granted: %v", res.Err)
	}
	for _, ev := range coord.FaultEvents() {
		if ev.Kind == "agent-reregister" || ev.Kind == "agent-register" {
			t.Errorf("re-announce at the configured URL logged %s: %s", ev.Kind, ev.Detail)
		}
	}
	if !coord.scratch.scrape.valid || !coord.scratch.grant.valid {
		t.Error("re-announce at the configured URL invalidated the fan-out plans")
	}
}

// serveTampered serves eps like a BinaryServer, but passes every batch
// reply through tamperScrape or tamperGrant (when its switch is on) before
// it is written, and returns the listener's tcp:// URL.
func serveTampered(t *testing.T, eps map[int]CtrlEndpoint, tamperScrape, tamperGrant *atomic.Bool,
	scrape func([]ScrapeResult) []ScrapeResult, grant func([]GrantResult) []GrantResult) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	honest := &BinaryServer{cfg: BinaryServerConfig{Endpoints: eps}}
	tamper := func(out []byte) []byte {
		var buf []byte
		ftype, payload, err := readFrame(bytes.NewReader(out), &buf)
		if err != nil {
			t.Error(err)
			return out
		}
		switch {
		case ftype == FrameBatchScrapeResp && tamperScrape.Load():
			var resp BatchScrapeResponse
			if err := decode(payload, &resp); err != nil {
				t.Error(err)
				return out
			}
			resp.Results = scrape(resp.Results)
			return finishFrame(encode(appendFrameHeader(nil), &resp))
		case ftype == FrameBatchGrantResp && tamperGrant.Load():
			var resp BatchGrantResponse
			if err := decode(payload, &resp); err != nil {
				t.Error(err)
				return out
			}
			resp.Results = grant(resp.Results)
			return finishFrame(encode(appendFrameHeader(nil), &resp))
		}
		return out
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				var sc serverConn
				for {
					ftype, payload, err := readFrame(br, &sc.in.b)
					if err != nil {
						return
					}
					if _, err := c.Write(tamper(honest.dispatch(&sc, ftype, payload))); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "tcp://" + ln.Addr().String()
}

// Batch replies answer slot-for-slot. A reply whose slots are permuted,
// name an agent the frame did not carry, or run out early must leave
// every mismatched position unscraped or ungranted with a "missing
// agent" error, while the positions that do match settle.
func TestBatchReplySlotsMatchByPosition(t *testing.T) {
	const n = 5
	eps := make(map[int]CtrlEndpoint, n)
	agents := make([]*Agent, n)
	for i := range agents {
		a, err := NewAgent(AgentConfig{ID: i, Backend: &fakeBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		agents[i], eps[i] = a, a
	}
	// Slot 0 stays; slots 1 and 2 swap; slot 3 names agent 9; slot 4 is
	// dropped.
	const foreign = 9
	var tamperScrape, tamperGrant atomic.Bool
	url := serveTampered(t, eps, &tamperScrape, &tamperGrant,
		func(r []ScrapeResult) []ScrapeResult {
			r[1], r[2] = r[2], r[1]
			r[3].Server = foreign
			return r[:4]
		},
		func(r []GrantResult) []GrantResult {
			r[1], r[2] = r[2], r[1]
			r[3].Server = foreign
			return r[:4]
		})
	refs := make([]AgentRef, n)
	for i := range refs {
		refs[i] = AgentRef{ID: i, URL: url}
	}
	coord, err := New(Config{Agents: refs, Strategy: StrategyEqual, LeaseIv: 1, IntervalS: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx := context.Background()
	// An honest interval first: the coordinator rehydrates and grants.
	if res, err := coord.Step(ctx, 0, 300); err != nil || res.AssignErrs != 0 || res.ScrapeErrs != 0 {
		t.Fatalf("honest interval: %+v, %v", res, err)
	}
	missing := func(phase string, want ...bool) {
		t.Helper()
		for i, settled := range want {
			err := coord.scratch.errs[i]
			if settled != (err == nil) {
				t.Errorf("%s: agent %d error %v, want settled=%v", phase, i, err, settled)
			} else if err != nil && !strings.Contains(err.Error(), "missing agent") {
				t.Errorf("%s: agent %d error %q, want a missing-agent error", phase, i, err)
			}
		}
	}

	tamperScrape.Store(true)
	res, err := coord.Observe(ctx, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrapeErrs != n-1 {
		t.Errorf("tampered scrape: %d scrape errors, want %d", res.ScrapeErrs, n-1)
	}
	for i, m := range coord.members {
		if m.scraped != (i == 0) {
			t.Errorf("tampered scrape: agent %d scraped=%v", i, m.scraped)
		}
	}
	missing("scrape", true, false, false, false, false)

	tamperScrape.Store(false)
	tamperGrant.Store(true)
	res, err = coord.Step(ctx, 600, 250) // a new cap: every grant is an assign
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrapeErrs != 0 || res.AssignErrs != n-1 {
		t.Errorf("tampered grant: %d scrape, %d assign errors, want 0 and %d", res.ScrapeErrs, res.AssignErrs, n-1)
	}
	for i, g := range res.Granted {
		if g != (i == 0) {
			t.Errorf("tampered grant: agent %d granted=%v", i, g)
		}
	}
	missing("grant", true, false, false, false, false)
	if agents[0].CapW() != 50 {
		t.Errorf("agent 0 enforces %g W, want its 50 W grant", agents[0].CapW())
	}
}
