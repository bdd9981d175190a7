package ctrlplane

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerstruggle/internal/faults"
)

// fakeClock is an injectable wall clock: the chaos suite advances each
// coordinator's clock in lockstep with trace time (or skews one of
// them) instead of sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// wallAt maps trace seconds onto the fake wall clock, 1:1.
func wallAt(traceT float64) time.Time {
	return t0.Add(time.Duration(traceT * float64(time.Second)))
}

// haPair builds two HA coordinators over one shared election store and
// one fleet, each with its own fake clock.
func haPair(t *testing.T, refs []AgentRef, store Election, cfg Config) (a, b *HA, clkA, clkB *fakeClock) {
	t.Helper()
	mk := func(id string) (*HA, *fakeClock) {
		c := cfg
		c.Agents = refs
		coord, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: t0}
		ha, err := NewHA(coord, HAConfig{ID: id, Election: store, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		return ha, clk
	}
	a, clkA = mk("coord-a")
	b, clkB = mk("coord-b")
	return a, b, clkA, clkB
}

// TestHAFailoverSoak is the HA acceptance gate, run under -race in CI:
// a leader and a warm standby drive a real loopback fleet through a cap
// ramp; the leader is killed mid-trace. The standby must take over
// within one control interval of observable leader silence, the summed
// fleet draw must never exceed the cluster cap at any tick, no agent
// may apply two different epochs' grants in the same control interval,
// and every granted interval's budget vector must match the
// single-coordinator simulation bit for bit — including after recovery,
// when the old leader returns as a mere observer.
func TestHAFailoverSoak(t *testing.T) {
	const (
		servers  = 4
		interval = 300.0
		steps    = 14
		killStep = 6 // the leader's last step is killStep-1
		backStep = 10
	)
	caps := capRamp(steps, interval, 720, 420)

	// Oracle: the pure simulation over the same schedule. Budgets
	// depend only on (cap, alive set, curves), so every granted
	// networked interval must reproduce it exactly, whichever
	// coordinator granted.
	oracle, err := testEvaluator(t, servers, nil).Evaluate(caps, oracleStrategy(StrategyUtility))
	if err != nil {
		t.Fatal(err)
	}

	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "ha-soak")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()

	store := NewMemElection()
	a, b, clkA, clkB := haPair(t, flt.Refs(), store, Config{
		Strategy: StrategyUtility,
		// The lease equals the control interval: the longest lease that
		// still guarantees the cap structurally, and what bounds the
		// failover blackout to one interval of fenced (zero-draw) fleet.
		LeaseIv:   1,
		IntervalS: interval,
		Seed:      7,
	})

	leadEpochs := make(map[uint64]string) // epoch → coordinator that granted under it
	for s, cp := range caps {
		clkA.Set(wallAt(cp.T))
		clkB.Set(wallAt(cp.T))
		epochsBefore := make([]uint64, servers)
		for i, ag := range flt.Agents {
			epochsBefore[i] = ag.Status().Epoch
		}

		var results []StepResult
		if s < killStep || s >= backStep {
			res, err := a.Step(context.Background(), cp.T, cp.V)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		res, err := b.Step(context.Background(), cp.T, cp.V)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)

		// Exactly one leader per interval, and its budgets match the
		// oracle. The takeover interval (killStep) legitimately has no
		// leader: the standby's campaign cannot win until the dead
		// leader's term lapses.
		var leaders int
		for _, r := range results {
			if !r.Leading {
				continue
			}
			leaders++
			if who, ok := leadEpochs[r.Epoch]; ok && who != fmt.Sprint(r.Epoch, r.Leading) {
				// Same epoch led twice is fine only for the same node;
				// recorded below keyed by epoch.
				_ = who
			}
			for i, bg := range r.Budgets {
				if bg != oracle.BudgetSeries[s][i] {
					t.Fatalf("step %d server %d: epoch-%d budget %g W, simulation %g W",
						s, i, r.Epoch, bg, oracle.BudgetSeries[s][i])
				}
			}
			for i, g := range r.Granted {
				if !g {
					t.Fatalf("step %d: leader (epoch %d) budget for agent %d not acknowledged", s, r.Epoch, i)
				}
			}
		}
		if leaders > 1 {
			t.Fatalf("step %d: %d leaders granted in one interval", s, leaders)
		}
		if s == killStep && leaders != 0 {
			t.Fatalf("step %d: the dead leader's unexpired term was stolen early", s)
		}
		if s != killStep && leaders != 1 {
			t.Fatalf("step %d: no leader granted", s)
		}
		if s == killStep+1 {
			if term, lead := b.Leader(); !lead || term.Epoch != 2 {
				t.Fatalf("standby had not taken over one interval after silence: term %+v lead %v", term, lead)
			}
		}

		// No agent applies two epochs' grants in one interval, and
		// applied epochs never move backward.
		for i, ag := range flt.Agents {
			after := ag.Status().Epoch
			if after < epochsBefore[i] {
				t.Fatalf("step %d: agent %d's applied epoch went backward (%d → %d)", s, i, epochsBefore[i], after)
			}
			if epochsBefore[i] != 0 && after != epochsBefore[i] && epochsBefore[i] != after-1 {
				t.Fatalf("step %d: agent %d jumped epochs %d → %d in one interval", s, i, epochsBefore[i], after)
			}
		}

		// The cap invariant, at the interval edge and mid-interval.
		if err := flt.Tick(cp.T); err != nil {
			t.Fatal(err)
		}
		if draw := flt.FleetGridW(); draw > cp.V+1e-6 {
			t.Fatalf("step %d (t=%g): fleet draws %g W over the %g W cap", s, cp.T, draw, cp.V)
		}
		if err := flt.Tick(cp.T + interval/2); err != nil {
			t.Fatal(err)
		}
		if draw := flt.FleetGridW(); draw > cp.V+1e-6 {
			t.Fatalf("step %d (t=%g, mid-interval): fleet draws %g W over the %g W cap", s, cp.T, draw, cp.V)
		}
	}

	if got := b.Failovers(); got != 1 {
		t.Fatalf("standby counted %d failovers, want 1", got)
	}
	if got := a.Failovers(); got != 0 {
		t.Fatalf("old leader counted %d failovers, want 0", got)
	}
	if term, lead := a.Leader(); lead {
		t.Fatalf("returned old leader still believes it leads: %+v", term)
	}
	if a.Coordinator().PeakEpoch() != 2 {
		t.Fatalf("old leader observed peak epoch %d, want 2", a.Coordinator().PeakEpoch())
	}
	for i, ag := range flt.Agents {
		if ag.Status().Epoch != 2 {
			t.Fatalf("agent %d finished at epoch %d, want 2", i, ag.Status().Epoch)
		}
	}
	if st := b.Coordinator().Stats(); st.Steps == 0 || st.Observes == 0 {
		t.Fatalf("standby never exercised both roles: %+v", st)
	}
}

// TestSplitBrainEpochFencing drives the window the election cannot
// close: a deposed leader that has not yet noticed keeps fanning out.
// Once any epoch-2 grant lands, every epoch-1 assignment and renewal
// must be refused at the agents, no matter how it is retried.
func TestSplitBrainEpochFencing(t *testing.T) {
	const servers, interval = 3, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "split")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	mk := func() *Coordinator {
		c, err := New(Config{Agents: flt.Refs(), Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	zombie, leader := mk(), mk()
	leader.SetEpoch(2)

	// Interval 0: the zombie grants first (the agents have seen nothing
	// newer), then the new leader overrides within the same interval.
	resZ, err := zombie.Step(context.Background(), 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range resZ.Granted {
		if !g {
			t.Fatalf("agent %d refused the first leader's grant", i)
		}
	}
	resL, err := leader.Step(context.Background(), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range resL.Granted {
		if !g {
			t.Fatalf("agent %d refused the epoch-2 takeover grant", i)
		}
	}
	want := 300.0 / servers
	for i, ag := range flt.Agents {
		if ag.CapW() != want || ag.Status().Epoch != 2 {
			t.Fatalf("agent %d: cap %g W epoch %d after takeover, want %g W epoch 2", i, ag.CapW(), ag.Status().Epoch, want)
		}
	}

	// Interval 1: the zombie retries — scrape, renewal, assignment all
	// carry epoch 1 and every grant must bounce. Its budgets would have
	// been 200 W each; the agents must stay at the leader's 100 W.
	resZ2, err := zombie.Step(context.Background(), interval, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !resZ2.Deposed {
		t.Fatal("zombie did not learn it was deposed from the responses")
	}
	if resZ2.AssignErrs != servers {
		t.Fatalf("%d of %d zombie grants refused", resZ2.AssignErrs, servers)
	}
	for i, g := range resZ2.Granted {
		if g {
			t.Fatalf("agent %d acknowledged a stale-epoch grant", i)
		}
	}
	for i, ag := range flt.Agents {
		if ag.Status().Epoch != 2 {
			t.Fatalf("agent %d regressed to epoch %d", i, ag.Status().Epoch)
		}
		if ag.Status().EpochDrops == 0 {
			t.Fatalf("agent %d counted no epoch drops", i)
		}
	}

	// The rightful leader's next interval restores service untouched.
	resL2, err := leader.Step(context.Background(), interval, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range resL2.Granted {
		if !g {
			t.Fatalf("agent %d refused the rightful leader after the zombie's retry", i)
		}
	}
	for i, ag := range flt.Agents {
		if ag.Status().Fenced || ag.CapW() != want {
			t.Fatalf("agent %d: fenced=%v cap=%g after recovery, want an unfenced %g W", i, ag.Status().Fenced, ag.CapW(), want)
		}
	}
}

// TestClockSkewTakeover: a standby whose clock runs far ahead judges
// the leader's term expired and takes over — a spurious failover, but a
// safe one: epochs resolve it, the old leader stands down on the
// evidence in the responses, and exactly one coordinator grants from
// the next interval on.
func TestClockSkewTakeover(t *testing.T) {
	const servers, interval = 3, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "skew")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	store := NewMemElection()
	a, b, clkA, clkB := haPair(t, flt.Refs(), store, Config{
		Strategy:  StrategyEqual,
		LeaseIv:   1,
		IntervalS: interval,
	})
	skew := 2 * a.TermTTL()

	// Interval 0: A bootstraps epoch 1; B, skewed ahead, sees that term
	// as already lapsed and takes epoch 2 within the same interval.
	clkA.Set(wallAt(0))
	clkB.Set(wallAt(0).Add(skew))
	resA, err := a.Step(context.Background(), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Leading || resA.Epoch != 1 {
		t.Fatalf("bootstrap: %+v", resA)
	}
	resB, err := b.Step(context.Background(), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Leading || resB.Epoch != 2 {
		t.Fatalf("skewed standby did not take over: %+v", resB)
	}
	if b.Failovers() != 1 {
		t.Fatalf("failovers %d, want 1", b.Failovers())
	}

	// Interval 1: A campaigns, loses (B's term is unexpired on any
	// clock A can hold), observes, and reports deposed; B renews and
	// remains the only granter.
	clkA.Set(wallAt(interval))
	clkB.Set(wallAt(interval).Add(skew))
	resA, err = a.Step(context.Background(), interval, 300)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Leading {
		t.Fatal("deposed leader granted after the skewed takeover")
	}
	if !resA.Deposed {
		t.Fatal("deposed leader did not see the newer epoch in the fleet's responses")
	}
	resB, err = b.Step(context.Background(), interval, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !resB.Leading || resB.Epoch != 2 {
		t.Fatalf("skewed winner lost its own term: %+v", resB)
	}
	for i, ag := range flt.Agents {
		if ag.Status().Epoch != 2 {
			t.Fatalf("agent %d at epoch %d, want 2", i, ag.Status().Epoch)
		}
	}
	if err := flt.Tick(interval); err != nil {
		t.Fatal(err)
	}
	if draw := flt.FleetGridW(); draw > 300+1e-6 {
		t.Fatalf("fleet draws %g W over the 300 W cap through the skewed handoff", draw)
	}
}

// TestPartitionedLeaderKeepsCapSafe: a leader cut off from the fleet
// but not from the election store keeps its term — availability is
// lost, not leadership — and safety degrades gracefully: the agents'
// draw leases lapse, they fence to zero draw, and the standby must NOT
// steal the term. When the partition heals, the same leader readmits
// and regrants the whole fleet.
func TestPartitionedLeaderKeepsCapSafe(t *testing.T) {
	const servers, interval = 3, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "partition")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	refs := flt.Refs()
	net, err := faults.NewNetInjector(faults.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemElection()

	coordA, err := New(Config{
		Agents: refs, Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval,
		MissK: 2, Retries: 0, RPCTimeout: 200 * time.Millisecond,
		Transport: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	clkA := &fakeClock{t: t0}
	a, err := NewHA(coordA, HAConfig{ID: "coord-a", Election: store, Clock: clkA.Now})
	if err != nil {
		t.Fatal(err)
	}
	coordB, err := New(Config{Agents: refs, Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval})
	if err != nil {
		t.Fatal(err)
	}
	clkB := &fakeClock{t: t0}
	b, err := NewHA(coordB, HAConfig{ID: "coord-b", Election: store, Clock: clkB.Now})
	if err != nil {
		t.Fatal(err)
	}

	setPartition := func(down bool) {
		for _, ref := range refs {
			net.SetDown(ref.URL[len("tcp://"):], down)
		}
	}
	const capW = 300.0
	for s := 0; s < 8; s++ {
		ts := float64(s) * interval
		clkA.Set(wallAt(ts))
		clkB.Set(wallAt(ts))
		if s == 2 {
			setPartition(true)
		}
		if s == 6 {
			setPartition(false)
		}
		resA, err := a.Step(context.Background(), ts, capW)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := b.Step(context.Background(), ts, capW)
		if err != nil {
			t.Fatal(err)
		}
		if !resA.Leading {
			t.Fatalf("step %d: leader lost its term while only the data path was down", s)
		}
		if resB.Leading {
			t.Fatalf("step %d: standby stole an actively renewed term", s)
		}
		if err := flt.Tick(ts); err != nil {
			t.Fatal(err)
		}
		if draw := flt.FleetGridW(); draw > capW+1e-6 {
			t.Fatalf("step %d: fleet draws %g W over the %g W cap", s, draw, capW)
		}
		// One full interval into the partition every lease has lapsed:
		// the fleet must be fenced to zero draw, not coasting on stale
		// budgets.
		if s >= 3 && s < 6 {
			for i, ag := range flt.Agents {
				if !ag.Status().Fenced {
					t.Fatalf("step %d: agent %d unfenced %g s into the partition", s, i, ts-2*interval)
				}
			}
			if draw := flt.FleetGridW(); draw != 0 {
				t.Fatalf("step %d: fenced fleet draws %g W", s, draw)
			}
		}
		// After the heal, recovery within MissK intervals: full
		// membership, full grants, no epoch change (same leader).
		if s == 7 {
			for i, g := range resA.Granted {
				if !g {
					t.Fatalf("agent %d ungranted after the heal", i)
				}
			}
			if resA.Epoch != 1 {
				t.Fatalf("partition minted epoch %d without a leadership change", resA.Epoch)
			}
		}
	}
	if b.Failovers() != 0 {
		t.Fatalf("standby counted %d failovers across a data-path partition", b.Failovers())
	}
	if st := coordA.Stats(); st.LeaseExpiries != servers || st.Rejoins != servers {
		t.Fatalf("leader saw %d expiries / %d rejoins, want %d / %d", st.LeaseExpiries, st.Rejoins, servers, servers)
	}
}

// flakyElection injects store outages for one coordinator only — the
// store-partition case, distinct from the data-path partition above.
type flakyElection struct {
	inner Election
	fail  atomic.Bool
}

func (f *flakyElection) Campaign(id string, now time.Time, ttl time.Duration) (Term, error) {
	if f.fail.Load() {
		return Term{}, fmt.Errorf("injected store outage")
	}
	return f.inner.Campaign(id, now, ttl)
}

func (f *flakyElection) Resign(id string) error {
	if f.fail.Load() {
		return fmt.Errorf("injected store outage")
	}
	return f.inner.Resign(id)
}

// TestStorePartitionFailsOver: a leader that cannot reach the election
// store must drop to observing (it cannot prove it still leads), its
// term lapses, and the standby takes over with a new epoch.
func TestStorePartitionFailsOver(t *testing.T) {
	const servers, interval = 2, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "store-outage")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	store := NewMemElection()
	flaky := &flakyElection{inner: store}

	mk := func(id string, e Election) (*HA, *fakeClock) {
		c, err := New(Config{Agents: flt.Refs(), Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval})
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: t0}
		ha, err := NewHA(c, HAConfig{ID: id, Election: e, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		return ha, clk
	}
	a, clkA := mk("coord-a", flaky)
	b, clkB := mk("coord-b", store)

	sawTakeover := false
	for s := 0; s < 6; s++ {
		ts := float64(s) * interval
		clkA.Set(wallAt(ts))
		clkB.Set(wallAt(ts))
		if s == 2 {
			flaky.fail.Store(true)
		}
		resA, err := a.Step(context.Background(), ts, 200)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := b.Step(context.Background(), ts, 200)
		if err != nil {
			t.Fatal(err)
		}
		if s >= 2 && resA.Leading {
			t.Fatalf("step %d: leader granted without being able to renew its term", s)
		}
		if resB.Leading {
			sawTakeover = true
			if resB.Epoch != 2 {
				t.Fatalf("step %d: takeover under epoch %d, want 2", s, resB.Epoch)
			}
		}
		if err := flt.Tick(ts); err != nil {
			t.Fatal(err)
		}
		if draw := flt.FleetGridW(); draw > 200+1e-6 {
			t.Fatalf("step %d: fleet draws %g W over the 200 W cap", s, draw)
		}
	}
	if !sawTakeover {
		t.Fatal("standby never took over from the store-partitioned leader")
	}
	if a.CampaignErrors() == 0 {
		t.Fatal("leader counted no campaign errors across the store outage")
	}
	if b.Failovers() != 1 {
		t.Fatalf("standby counted %d failovers, want 1", b.Failovers())
	}
}

// serveCoordinator hosts c's register/vote frames on a loopback
// listener for the test's lifetime.
func serveCoordinator(t *testing.T, c *Coordinator) *BinaryServer {
	t.Helper()
	srv, err := StartBinaryServer("127.0.0.1:0", NewCoordinatorBinaryConfig(c, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestRegisterGrowsFleet: agent autodiscovery end to end — an agent
// announces itself with a register frame, the next control interval
// admits it and re-apportions, and a static fleet refuses registration
// outright.
func TestRegisterGrowsFleet(t *testing.T) {
	const servers, interval = 3, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "register")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	refs := flt.Refs()

	coord, err := New(Config{Agents: refs[:2], Dynamic: true, Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval})
	if err != nil {
		t.Fatal(err)
	}
	srvURL := serveCoordinator(t, coord).URL()

	res, err := coord.Step(context.Background(), 0, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Budgets) != 2 || res.Budgets[0] != 300 {
		t.Fatalf("pre-registration budgets %+v", res.Budgets)
	}

	// The third agent announces itself — through Announce, the same
	// path psd -ctrl-announce uses.
	reg, err := Announce(context.Background(), []string{srvURL},
		RegisterRequest{V: ProtocolV, Server: refs[2].ID, URL: refs[2].URL, NameplateW: 120}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Accepted || !reg.Leader {
		t.Fatalf("registration response %+v", reg)
	}

	res, err = coord.Step(context.Background(), interval, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Budgets) != 3 {
		t.Fatalf("fleet did not grow: %d budgets", len(res.Budgets))
	}
	if !res.Reapportioned {
		t.Fatal("admitting a member did not re-apportion")
	}
	for i, g := range res.Granted {
		if !g || res.Budgets[i] != 200 {
			t.Fatalf("agent %d: granted=%v budget=%g, want a granted 200 W", i, g, res.Budgets[i])
		}
	}
	if st := coord.Stats(); st.Registrations != 1 {
		t.Fatalf("registrations %d, want 1", st.Registrations)
	}

	// Re-announcing the same agent (a restart on the same URL) must not
	// grow the fleet again.
	if _, err := Announce(context.Background(), []string{srvURL},
		RegisterRequest{V: ProtocolV, Server: refs[2].ID, URL: refs[2].URL, NameplateW: 120}, time.Second); err != nil {
		t.Fatal(err)
	}
	res, err = coord.Step(context.Background(), 2*interval, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Budgets) != 3 || coord.Stats().Registrations != 1 {
		t.Fatalf("re-announcement grew the fleet: %d budgets, %d registrations", len(res.Budgets), coord.Stats().Registrations)
	}

	// The leadership view pscoord renders on GET /ctrl/leader: a plain
	// coordinator leads its own epoch.
	if st := CoordStatus(coord, nil); !st.Leader || st.Epoch != coord.Epoch() {
		t.Fatalf("leadership view %+v", st)
	}

	// A static fleet refuses registrations.
	static, err := New(Config{Agents: refs[:2], Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Announce(context.Background(), []string{serveCoordinator(t, static).URL()},
		RegisterRequest{V: ProtocolV, Server: refs[2].ID, URL: refs[2].URL, NameplateW: 120}, time.Second); err == nil {
		t.Fatal("static coordinator accepted a registration")
	}
}

// TestAnnounceReachesEveryCoordinator pins the warm-standby contract:
// an announce must land on every coordinator in the list, even the
// ones after the leader has already accepted — otherwise the standby
// wins its takeover term with an empty fleet and leads nobody.
func TestAnnounceReachesEveryCoordinator(t *testing.T) {
	const servers, interval = 2, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "announce-all")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	refs := flt.Refs()

	mk := func() (*Coordinator, *BinaryServer) {
		c, err := New(Config{Agents: refs[:1], Dynamic: true, Strategy: StrategyEqual, LeaseIv: 1, IntervalS: interval})
		if err != nil {
			t.Fatal(err)
		}
		return c, serveCoordinator(t, c)
	}
	lead, leadSrv := mk()
	standby, standbySrv := mk()

	// The leader is FIRST in the list and (with a nil HA) affirms
	// leadership, so an early-returning Announce would skip the standby.
	reg, err := Announce(context.Background(), []string{leadSrv.URL(), standbySrv.URL()},
		RegisterRequest{V: ProtocolV, Server: refs[1].ID, URL: refs[1].URL, NameplateW: 120}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Accepted || !reg.Leader {
		t.Fatalf("registration response %+v", reg)
	}
	for name, c := range map[string]*Coordinator{"leader": lead, "standby": standby} {
		res, err := c.Step(context.Background(), 0, 600)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Budgets) != 2 {
			t.Fatalf("%s fleet did not grow: %d budgets", name, len(res.Budgets))
		}
		if st := c.Stats(); st.Registrations != 1 {
			t.Fatalf("%s registrations %d, want 1", name, st.Registrations)
		}
	}

	// A dead coordinator in the list must not block the others.
	_, deadSrv := mk()
	deadSrv.Close()
	reg, err = Announce(context.Background(), []string{deadSrv.URL(), leadSrv.URL()},
		RegisterRequest{V: ProtocolV, Server: refs[1].ID, URL: refs[1].URL, NameplateW: 120}, time.Second)
	if err != nil || !reg.Accepted {
		t.Fatalf("announce past a dead coordinator: %+v %v", reg, err)
	}
}

// TestRenewalUnderDelayDuplication covers the lease path under the
// network injector's delay and duplication (no drops): renewals and
// their duplicates must keep the fleet granted and unfenced, with
// duplicated assigns absorbed by the sequence dedup.
func TestRenewalUnderDelayDuplication(t *testing.T) {
	const servers, interval = 3, 300.0
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "renewal-faults")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	net, err := faults.NewNetInjector(faults.NetConfig{
		Seed: 21, DelayP: 0.6, DelayMax: 2 * time.Millisecond, DupP: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{
		Agents:   flt.Refs(),
		Strategy: StrategyEqual,
		// A lease spanning two intervals plus slack: the steady state
		// is renewals, which is the path under test.
		LeaseIv:   3,
		IntervalS: interval,
		Transport: net,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		ts := float64(s) * interval
		res, err := coord.Step(context.Background(), ts, 450)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range res.Granted {
			if !g {
				t.Fatalf("step %d: agent %d ungranted under delay+duplication", s, i)
			}
		}
		if err := flt.Tick(ts); err != nil {
			t.Fatal(err)
		}
		if draw := flt.FleetGridW(); draw > 450+1e-6 {
			t.Fatalf("step %d: fleet draws %g W over the 450 W cap", s, draw)
		}
	}
	for i, ag := range flt.Agents {
		if ag.Status().Fences != 0 || ag.Status().Fenced {
			t.Fatalf("agent %d fenced %d times under a steadily renewed lease", i, ag.Status().Fences)
		}
		if ag.CapW() != 150 {
			t.Fatalf("agent %d enforces %g W, want 150 W", i, ag.CapW())
		}
	}
	counts := net.Counts()
	if counts.Duplicates == 0 || counts.Delays == 0 {
		t.Fatalf("injector fired nothing (%+v) — the run proved nothing", counts)
	}
}

// Epoch fencing at the agent, under the message-level faults the wire
// can produce: duplicated grants, reordered (older-T) renewals, and
// renewals from epochs other than the one that granted.
func TestAgentEpochFencingRules(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	grant := func(epoch, seq uint64, t6, capW float64) AssignResponse {
		resp, err := a.Assign(AssignRequest{V: ProtocolV, Epoch: epoch, Seq: seq, Server: 0, T: t6, CapW: capW,
			Iv: uint64(t6/10) + 1, LeaseIv: 10, IvS: 10})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Epoch 1 grants, then epoch 2 takes over with a LOWER seq — seqs
	// reset per leader, and (epoch, seq) ordering must still apply it.
	if resp := grant(1, 9, 0, 50); !resp.Applied {
		t.Fatal("bootstrap grant refused")
	}
	if resp := grant(2, 1, 10, 70); !resp.Applied {
		t.Fatal("new epoch's first grant (lower seq) refused")
	}
	if a.CapW() != 70 || a.Status().Epoch != 2 {
		t.Fatalf("cap %g epoch %d after takeover", a.CapW(), a.Status().Epoch)
	}

	// A duplicated epoch-2 grant is a stale drop; a delayed epoch-1
	// grant with a huge seq is an epoch drop. Neither touches the cap.
	if resp := grant(2, 1, 10, 70); resp.Applied {
		t.Fatal("duplicate applied twice")
	}
	if resp := grant(1, 999, 20, 90); resp.Applied {
		t.Fatal("stale-epoch grant with a high seq applied")
	}
	if a.CapW() != 70 {
		t.Fatalf("cap %g after stale traffic, want 70", a.CapW())
	}
	if a.Status().StaleDrops != 1 || a.Status().EpochDrops != 1 {
		t.Fatalf("staleDrops=%d epochDrops=%d, want 1 and 1", a.Status().StaleDrops, a.Status().EpochDrops)
	}

	// Renewals: only the granting epoch extends the lease. An old
	// epoch's renewal is refused (and counted); a FUTURE epoch's
	// renewal — a new leader renewing before its first assign — must
	// not extend a lease it never granted, though it is not an error.
	// Renewals, like the grants above, are minted one interval per 10 s
	// of trace time with a 10-interval lease.
	renewAt := func(epoch uint64, t6 float64) LeaseResponse {
		resp, err := a.Renew(LeaseRequest{V: ProtocolV, Epoch: epoch, Server: 0, T: t6,
			Iv: uint64(t6/10) + 1, LeaseIv: 10, IvS: 10})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := renewAt(1, 30); resp.Epoch != 2 {
		t.Fatalf("old-epoch renewal: %+v", resp)
	}
	if a.Status().EpochDrops != 2 {
		t.Fatalf("old-epoch renewal not counted: %d", a.Status().EpochDrops)
	}
	before := renewAt(2, 40)
	after := renewAt(3, 90)
	if before.ExpiresIv == 0 || after.ExpiresIv != before.ExpiresIv {
		t.Fatalf("a future epoch's renewal moved the lease: interval %d → %d", before.ExpiresIv, after.ExpiresIv)
	}

	// A reordered renewal minted in an older interval must not pull the
	// lease backward (it would spuriously fence the agent).
	renewAt(2, 35)
	if err := a.Tick(139); err != nil {
		t.Fatal(err)
	}
	if a.Status().Fenced {
		t.Fatal("reordered renewal pulled the lease backward and fenced the agent")
	}
}
