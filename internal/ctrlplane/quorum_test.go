package ctrlplane

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"powerstruggle/internal/faults"
)

// TestQuorumVoterBallotRules pins the acceptor's two ballot rules —
// prepare grants strictly newer ballots only, accept grants the
// promised ballot itself or newer — and the always-reported accepted
// pair that later prepares adopt.
func TestQuorumVoterBallotRules(t *testing.T) {
	v := NewQuorumVoter(nil)
	w := termToWire(Term{Epoch: 1, Leader: "qa", Expires: t0.Add(10 * time.Second)})

	r := v.Vote(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 5})
	if !r.Granted || r.Promise != 5 || r.AcceptedBallot != 0 || r.Term != nil {
		t.Fatalf("fresh prepare: %+v", r)
	}
	// The promised ballot itself must bounce: granting it twice would
	// let two proposers share one round.
	if r = v.Vote(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 5}); r.Granted {
		t.Fatalf("re-prepare at the promise granted: %+v", r)
	}
	if r = v.Vote(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 4}); r.Granted || r.Promise != 5 {
		t.Fatalf("stale prepare: %+v", r)
	}
	// Accept at the promise lands (it is the proposer's own prepare).
	if r = v.Vote(VoteRequest{V: ProtocolV, Phase: VoteAccept, Ballot: 5, Term: &w}); !r.Granted || r.AcceptedBallot != 5 {
		t.Fatalf("accept at the promise: %+v", r)
	}
	if r = v.Vote(VoteRequest{V: ProtocolV, Phase: VoteAccept, Ballot: 4, Term: &w}); r.Granted {
		t.Fatalf("stale accept granted: %+v", r)
	}
	// A later prepare adopts the accepted pair.
	r = v.Vote(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 9})
	if !r.Granted || r.Promise != 9 || r.AcceptedBallot != 5 || r.Term == nil || r.Term.Epoch != 1 {
		t.Fatalf("prepare after accept: %+v", r)
	}
	// The old proposer has been superseded; its accept must bounce.
	if r = v.Vote(VoteRequest{V: ProtocolV, Phase: VoteAccept, Ballot: 5, Term: &w}); r.Granted {
		t.Fatalf("superseded accept granted: %+v", r)
	}
	if term, b := v.Accepted(); term.Epoch != 1 || term.Leader != "qa" || b != 5 {
		t.Fatalf("accepted state %+v at ballot %d", term, b)
	}
}

// TestVoterHandlerRejectsBadTraffic drives a voter's listener with the
// malformed vote frames the strict payload decoder must bounce — each
// with an error frame, the voter's state untouched.
func TestVoterHandlerRejectsBadTraffic(t *testing.T) {
	v := NewQuorumVoter(nil)
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Vote: v.Vote})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bin := newBinaryTransport(nil, nil)
	defer bin.Close()
	ctx := context.Background()

	// A listener without a voter behind it refuses the frame outright.
	if err := send(ctx, bin, serveEndpoints(t, nil), rpcVote, VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 1}, new(VoteResponse)); err == nil {
		t.Fatal("agent-only listener answered a vote frame")
	}
	term := func(epoch uint64) *WireTerm { return &WireTerm{Epoch: epoch, Leader: "x"} }
	raw := dialRaw(t, srv.URL())
	prepare := wireBytes(&VoteRequest{Phase: VotePrepare, Ballot: 1})
	for what, payload := range map[string][]byte{
		"empty payload":        nil,
		"truncated payload":    prepare[:len(prepare)-1],
		"ballot 0":             wireBytes(&VoteRequest{Phase: VotePrepare, Ballot: 0}),
		"unknown phase":        wireBytes(&VoteRequest{Phase: "veto", Ballot: 1}),
		"prepare with a term":  wireBytes(&VoteRequest{Phase: VotePrepare, Ballot: 1, Term: term(1)}),
		"accept without term":  wireBytes(&VoteRequest{Phase: VoteAccept, Ballot: 1}),
		"accept of epoch 0":    wireBytes(&VoteRequest{Phase: VoteAccept, Ballot: 1, Term: term(0)}),
		"trailing bogus bytes": append(append([]byte{}, prepare...), 1),
	} {
		err := sendRaw(raw, FrameVoteReq, payload, nil)
		var remote *frameRemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("%s: got %v, want an error frame", what, err)
		}
	}
	if _, b := v.Accepted(); b != 0 {
		t.Fatalf("malformed traffic reached the voter: accepted ballot %d", b)
	}
	if r := v.Vote(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 1}); !r.Granted {
		t.Fatalf("malformed traffic moved the voter's promise: %+v", r)
	}
}

// TestQuorumSurvivesMinorityVoterLoss is the availability half of the
// quorum guarantee: with any minority of voters down the store keeps
// deciding campaigns, and with a majority down it errors instead of
// guessing.
func TestQuorumSurvivesMinorityVoterLoss(t *testing.T) {
	pool, err := StartVoterPool(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	e, err := NewQuorumElection(QuorumConfig{Voters: pool.URLs(), Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Quorum(); got != 2 {
		t.Fatalf("majority of 3 = %d", got)
	}
	const ttl = 10 * time.Second
	if term, err := e.Campaign("qa", t0, ttl); err != nil || term.Epoch != 1 || term.Leader != "qa" {
		t.Fatalf("bootstrap: %+v, %v", term, err)
	}

	pool.StopVoter(2)
	term, err := e.Campaign("qa", t0.Add(time.Second), ttl)
	if err != nil {
		t.Fatalf("campaign with one voter down: %v", err)
	}
	if term.Epoch != 1 || term.Leader != "qa" || !term.Expires.Equal(t0.Add(11*time.Second)) {
		t.Fatalf("renewal with one voter down: %+v", term)
	}

	// A second loss breaks the majority: campaigns error — the caller
	// has learned nothing and must not lead — rather than deciding on
	// whatever minority still answers.
	pool.StopVoter(1)
	if term, err := e.Campaign("qa", t0.Add(2*time.Second), ttl); err == nil {
		t.Fatalf("campaign decided without a majority: %+v", term)
	}
}

// TestQuorumMinorityPartitionNeverLeads is the safety half: a proposer
// that can only reach a minority of voters can never mint a leader, no
// matter how expired the term looks to its (far-ahead) clock, while the
// majority side keeps renewing through the same store. When the
// partition heals, the isolated proposer converges on the committed
// state before taking its turn.
func TestQuorumMinorityPartitionNeverLeads(t *testing.T) {
	pool, err := StartVoterPool(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	const ttl = 10 * time.Second
	urls := pool.URLs()

	a, err := NewQuorumElection(QuorumConfig{Voters: urls})
	if err != nil {
		t.Fatal(err)
	}
	if term, err := a.Campaign("qa", t0, ttl); err != nil || term.Epoch != 1 || term.Leader != "qa" {
		t.Fatalf("bootstrap: %+v, %v", term, err)
	}

	// Proposer B sits in a minority partition: only voter 0 is
	// reachable. Its clock runs an hour ahead, so absent the partition
	// it would steal the long-expired term instantly.
	inj, err := faults.NewNetInjector(faults.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range urls[1:] {
		inj.SetDown(strings.TrimPrefix(u, "tcp://"), true)
	}
	b, err := NewQuorumElection(QuorumConfig{Voters: urls, Transport: inj, Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		skewed := t0.Add(time.Hour + time.Duration(i)*time.Second)
		if term, err := b.Campaign("qb", skewed, ttl); err == nil {
			t.Fatalf("minority partition minted a leader: %+v", term)
		}
	}

	// The majority side is undisturbed: A still renews epoch 1, even
	// though B's prepares bumped the reachable voter's promise past A's
	// ballots — A's majority and B's minority don't have to overlap.
	term, err := a.Campaign("qa", t0.Add(5*time.Second), ttl)
	if err != nil {
		t.Fatalf("majority-side renewal during the partition: %v", err)
	}
	if term.Epoch != 1 || term.Leader != "qa" {
		t.Fatalf("majority-side renewal during the partition: %+v", term)
	}
	// No voter ever accepted anything beyond the committed term.
	for i, v := range pool.Voters {
		if acc, _ := v.Accepted(); acc.Epoch != 1 || acc.Leader != "qa" {
			t.Fatalf("voter %d accepted %+v during the partition", i, acc)
		}
	}

	// Heal. B now assembles a majority, adopts the committed term, and —
	// the term being long expired on its clock — takes the next epoch.
	for _, u := range urls[1:] {
		inj.SetDown(strings.TrimPrefix(u, "tcp://"), false)
	}
	term, err = b.Campaign("qb", t0.Add(time.Hour), ttl)
	if err != nil {
		t.Fatalf("campaign after heal: %v", err)
	}
	if term.Epoch != 2 || term.Leader != "qb" {
		t.Fatalf("post-heal takeover: %+v", term)
	}
}

// TestQuorumFailoverSoak is the quorum-pool acceptance gate, run under
// -race in CI: three priority-ranked coordinators elect through a
// 3-voter quorum store over real loopback HTTP while driving a real
// loopback fleet through a cap ramp; the rank-0 leader is killed
// mid-trace and returns later as an observer. The rank-1 standby must
// take over within one interval of observable silence while rank 2
// holds off, the fleet must never breach the cap, and every granted
// interval's budget vector must match the single-coordinator
// simulation bit for bit.
func TestQuorumFailoverSoak(t *testing.T) {
	const (
		servers  = 4
		interval = 300.0
		steps    = 14
		killStep = 6 // the leader's last step is killStep-1
		backStep = 10
	)
	caps := capRamp(steps, interval, 720, 420)
	oracle, err := testEvaluator(t, servers, nil).Evaluate(caps, oracleStrategy(StrategyUtility))
	if err != nil {
		t.Fatal(err)
	}
	flt, err := StartSimFleet(testEvaluator(t, servers, nil), "quorum-soak")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()

	pool, err := StartVoterPool(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)

	// Candidate ids chosen so the FNV ballot hashes ascend in step
	// order (qa < qb < qc): the members campaign sequentially each
	// interval, and ascending low halves keep same-round ballots from
	// dueling, so the soak is deterministic. (Hash order affects only
	// liveness — contended campaigns error and retry next interval —
	// never safety.)
	ids := []string{"qa", "qb", "qc"}
	has := make([]*HA, len(ids))
	clks := make([]*fakeClock, len(ids))
	for i, id := range ids {
		coord, err := New(Config{Agents: flt.Refs(), Strategy: StrategyUtility, LeaseIv: 1, IntervalS: interval, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewQuorumElection(QuorumConfig{Voters: pool.URLs()})
		if err != nil {
			t.Fatal(err)
		}
		clks[i] = &fakeClock{t: t0}
		has[i], err = NewHA(coord, HAConfig{ID: id, Election: e, Clock: clks[i].Now, Priority: i})
		if err != nil {
			t.Fatal(err)
		}
	}

	for s, cp := range caps {
		for _, clk := range clks {
			clk.Set(wallAt(cp.T))
		}
		epochsBefore := make([]uint64, servers)
		for i, ag := range flt.Agents {
			epochsBefore[i] = ag.Status().Epoch
		}

		leaders := 0
		for i, ha := range has {
			if i == 0 && s >= killStep && s < backStep {
				continue
			}
			res, err := ha.Step(context.Background(), cp.T, cp.V)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Leading {
				continue
			}
			leaders++
			if i != 0 && s < killStep {
				t.Fatalf("step %d: standby %s led while the leader was alive", s, ids[i])
			}
			for j, bg := range res.Budgets {
				if bg != oracle.BudgetSeries[s][j] {
					t.Fatalf("step %d server %d: epoch-%d budget %g W, simulation %g W",
						s, j, res.Epoch, bg, oracle.BudgetSeries[s][j])
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
			if term, lead := has[1].Leader(); !lead || term.Epoch != 2 {
				t.Fatalf("rank-1 standby had not taken over one interval after silence: term %+v lead %v", term, lead)
			}
		}

		// Applied epochs never move backward or skip at any agent.
		for i, ag := range flt.Agents {
			after := ag.Status().Epoch
			if after < epochsBefore[i] {
				t.Fatalf("step %d: agent %d's applied epoch went backward (%d -> %d)", s, i, epochsBefore[i], after)
			}
			if epochsBefore[i] != 0 && after != epochsBefore[i] && epochsBefore[i] != after-1 {
				t.Fatalf("step %d: agent %d jumped epochs %d -> %d in one interval", s, i, epochsBefore[i], after)
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

	if got := has[1].Failovers(); got != 1 {
		t.Fatalf("rank-1 standby counted %d failovers, want 1", got)
	}
	if got := has[0].Failovers() + has[2].Failovers(); got != 0 {
		t.Fatalf("ranks 0 and 2 counted %d failovers, want 0", got)
	}
	if got := has[2].Holdoffs(); got < 1 {
		t.Fatalf("rank 2 never held a steal off (holdoffs %d)", got)
	}
	if term, lead := has[0].Leader(); lead {
		t.Fatalf("returned old leader still believes it leads: %+v", term)
	}
	for i, ag := range flt.Agents {
		if ag.Status().Epoch != 2 {
			t.Fatalf("agent %d finished at epoch %d, want 2", i, ag.Status().Epoch)
		}
	}
	// The replicated term itself converged on every voter.
	for i, v := range pool.Voters {
		if acc, _ := v.Accepted(); acc.Epoch != 2 || acc.Leader != "qb" {
			t.Fatalf("voter %d holds %+v, want epoch 2 led by qb", i, acc)
		}
	}
}
