package ctrlplane

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"powerstruggle/internal/faults"
	"powerstruggle/internal/telemetry"
)

// This file is the quorum election store: the term replicated across
// the coordinator pool itself, with no shared file or external service
// behind it. Every pool member runs a QuorumVoter (dumb acceptor
// storage answering vote frames), and QuorumElection commits each
// campaign with a single-decree consensus round in the CASPaxos style:
//
//	prepare(ballot)        → a majority grants, each reporting its last
//	                         accepted (ballot, term)
//	adopt                  → the term with the highest accepted ballot
//	                         is the current value (zero term if none)
//	decide                 → campaignDecide, the same acquire/renew/
//	                         observe rule the other stores apply
//	accept(ballot, term')  → a majority acks, committing the decision
//
// The accept round runs even when the decision leaves the term
// unchanged: writing the adopted value back is what makes each
// campaign a linearizable compare-and-swap — a term seen on a minority
// of voters may never have committed at all, and only the write-back
// promotes it to a fact later campaigns must observe.
//
// Safety is quorum intersection. A committed term sits on a majority;
// any later prepare also needs a majority; the two overlap in at least
// one voter, which reports the committed value (and its ballot beats
// any uncommitted leftover, because an acceptor only accepts at its
// promised ballot). So epochs can only move through campaignDecide —
// strictly monotonic — and a minority partition, unable to assemble
// either quorum, can never mint a leader. Liveness holds with any
// minority of voters down. Voter state is in-memory: a restarted voter
// rejoins empty, so the pool's guarantees assume fewer than a majority
// of voters are down or freshly restarted at once (the same spirit in
// which FileElection assumes its one filesystem survives, weakened to
// a minority).
//
// Voters never judge expiry or leadership: campaignDecide applies the
// caller's clock, exactly like the other stores, and cluster safety
// rests on agent-side epoch fencing rather than on anyone's clock.

// QuorumConfig parameterizes a quorum election store proposer.
type QuorumConfig struct {
	// Voters lists every pool member's voter base URL, this
	// coordinator's own included. A campaign commits on a majority
	// (len/2 + 1), so an odd pool size buys the most crash tolerance.
	// The list is the pool: every member must be configured with the
	// same set.
	Voters []string
	// Timeout bounds each voter RPC (default 1s). There are no
	// retries: a campaign that cannot reach a majority errors, and the
	// HA layer treats that as "not leader", which is always safe.
	Timeout time.Duration
	// Transport, when non-nil, injects network faults around every vote
	// exchange (the chaos suite's partitions).
	Transport *faults.NetInjector
	// Telemetry, when non-nil, registers the quorum gauges. May be
	// nil.
	Telemetry *telemetry.Hub
}

// QuorumElection implements Election over a pool of voter endpoints.
// Safe for concurrent use; each coordinator of the pool holds its own
// QuorumElection over the same voter list.
type QuorumElection struct {
	voters  []string
	quorum  int
	bin     *binaryTransport
	timeout time.Duration
	tel     *quorumTel

	mu    sync.Mutex
	round uint64 // high half of the next ballot; bumped past rejections
}

// NewQuorumElection builds a proposer over the given voter pool.
func NewQuorumElection(cfg QuorumConfig) (*QuorumElection, error) {
	if len(cfg.Voters) == 0 {
		return nil, fmt.Errorf("ctrlplane: quorum election needs voter URLs")
	}
	voters := make([]string, len(cfg.Voters))
	for i, raw := range cfg.Voters {
		if err := validateURL(raw); err != nil {
			return nil, fmt.Errorf("ctrlplane: quorum voter %w", err)
		}
		voters[i] = trimSlash(raw)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	tel := newQuorumTel(cfg.Telemetry)
	tel.setVoters(len(voters))
	return &QuorumElection{
		voters:  voters,
		quorum:  len(voters)/2 + 1,
		bin:     newBinaryTransport(nil, cfg.Transport),
		timeout: timeout,
		tel:     tel,
	}, nil
}

// Close releases the proposer's pooled voter connections.
func (q *QuorumElection) Close() { q.bin.Close() }

// Quorum returns the majority size campaigns commit on.
func (q *QuorumElection) Quorum() int { return q.quorum }

// Campaign implements Election: one consensus round as described atop
// this file. An error means the round could not reach a majority —
// the caller has learned nothing and must not act as leader.
func (q *QuorumElection) Campaign(id string, now time.Time, ttl time.Duration) (Term, error) {
	if err := validCampaign(id, ttl); err != nil {
		return Term{}, err
	}
	cur, ballot, err := q.prepare(id)
	if err != nil {
		q.tel.noteCampaign(0, false)
		return Term{}, err
	}
	next := campaignDecide(cur, id, now, ttl)
	acks, err := q.accept(ballot, next)
	if err != nil {
		q.tel.noteCampaign(acks, false)
		return Term{}, err
	}
	q.tel.noteCampaign(acks, true)
	return next, nil
}

// Resign implements Election: expire id's term, keeping its epoch. A
// no-op when id does not hold the term.
func (q *QuorumElection) Resign(id string) error {
	cur, ballot, err := q.prepare(id)
	if err != nil {
		return err
	}
	if cur.Leader != id {
		return nil
	}
	cur.Expires = time.Time{}
	_, err = q.accept(ballot, cur)
	return err
}

// prepare claims a fresh ballot on a majority and returns the newest
// accepted term among the granting voters (zero Term when the store
// is empty).
func (q *QuorumElection) prepare(id string) (Term, uint64, error) {
	b := q.nextBallot(id)
	outs := q.ask(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: b})
	var cur Term
	var curB uint64
	grants := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if !o.resp.Granted {
			q.observeRejection(o.resp.Promise)
			continue
		}
		grants++
		if o.resp.AcceptedBallot > curB {
			curB, cur = o.resp.AcceptedBallot, termFromWire(*o.resp.Term)
		}
	}
	if grants < q.quorum {
		return Term{}, 0, fmt.Errorf("ctrlplane: quorum prepare granted by %d of %d voters (need %d)",
			grants, len(q.voters), q.quorum)
	}
	return cur, b, nil
}

// accept writes next back under ballot b; the term commits iff a
// majority acks.
func (q *QuorumElection) accept(b uint64, next Term) (int, error) {
	w := termToWire(next)
	outs := q.ask(VoteRequest{V: ProtocolV, Phase: VoteAccept, Ballot: b, Term: &w})
	grants := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if o.resp.Granted {
			grants++
		} else {
			q.observeRejection(o.resp.Promise)
		}
	}
	if grants < q.quorum {
		return grants, fmt.Errorf("ctrlplane: quorum accept acked by %d of %d voters (need %d)",
			grants, len(q.voters), q.quorum)
	}
	return grants, nil
}

// voteOutcome is one voter's answer to one phase.
type voteOutcome struct {
	resp VoteResponse
	err  error
}

// ask runs one phase against every voter concurrently.
func (q *QuorumElection) ask(req VoteRequest) []voteOutcome {
	out := make([]voteOutcome, len(q.voters))
	fanOut(context.Background(), len(q.voters), len(q.voters), func(i int) {
		out[i].resp, out[i].err = q.vote(q.voters[i], req)
	})
	return out
}

// vote sends one phase to one voter.
func (q *QuorumElection) vote(base string, req VoteRequest) (VoteResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), q.timeout)
	defer cancel()
	var resp VoteResponse
	if err := send(ctx, q.bin, base, rpcVote, req, &resp); err != nil {
		return VoteResponse{}, fmt.Errorf("ctrlplane: voter %s: %w", base, err)
	}
	return resp, nil
}

// nextBallot mints a fresh, pool-unique ballot: a per-proposer round
// counter in the high half, a hash of the candidate identity in the
// low half so two proposers never share a ballot number.
func (q *QuorumElection) nextBallot(id string) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.round++
	return q.round<<32 | uint64(hashID(id))
}

// observeRejection fast-forwards the round counter past a rejecting
// voter's promise, so the next campaign's ballot can win.
func (q *QuorumElection) observeRejection(promise uint64) {
	q.mu.Lock()
	if r := promise >> 32; r > q.round {
		q.round = r
	}
	q.mu.Unlock()
}

func hashID(id string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return h.Sum32()
}

// termToWire encodes a term for the vote wire.
func termToWire(t Term) WireTerm {
	w := WireTerm{Epoch: t.Epoch, Leader: t.Leader}
	if !t.Expires.IsZero() {
		w.ExpiresUnixNano = t.Expires.UnixNano()
	}
	return w
}

// termFromWire decodes a wire term.
func termFromWire(w WireTerm) Term {
	t := Term{Epoch: w.Epoch, Leader: w.Leader}
	if w.ExpiresUnixNano != 0 {
		t.Expires = time.Unix(0, w.ExpiresUnixNano).UTC()
	}
	return t
}

// QuorumVoter is one pool member's share of the replicated term: the
// acceptor half of the consensus round. It only orders ballots — it
// never judges expiry or leadership — so proposers' clock skew cannot
// corrupt it. Safe for concurrent use.
type QuorumVoter struct {
	tel *quorumTel

	mu        sync.Mutex
	promise   uint64 // highest ballot promised to a prepare
	acceptedB uint64 // ballot of the last accepted term (0: none yet)
	term      Term   // last accepted term
}

// NewQuorumVoter builds an empty voter. hub may be nil.
func NewQuorumVoter(hub *telemetry.Hub) *QuorumVoter {
	return &QuorumVoter{tel: newQuorumTel(hub)}
}

// Vote answers one prepare or accept. req must already be validated
// (the wire decoder enforces the message invariants).
func (v *QuorumVoter) Vote(req VoteRequest) VoteResponse {
	v.mu.Lock()
	defer v.mu.Unlock()
	resp := VoteResponse{V: ProtocolV}
	switch req.Phase {
	case VotePrepare:
		// Strictly newer ballots only: granting the promised ballot
		// itself would let two proposers share one round.
		if req.Ballot > v.promise {
			v.promise = req.Ballot
			resp.Granted = true
		}
	case VoteAccept:
		// The promised ballot itself is acceptable (the proposer's own
		// prepare set it); anything older has been superseded by a
		// newer prepare and must bounce.
		if req.Ballot >= v.promise {
			v.promise = req.Ballot
			v.acceptedB = req.Ballot
			v.term = termFromWire(*req.Term)
			resp.Granted = true
		}
	}
	if v.acceptedB > 0 {
		w := termToWire(v.term)
		resp.AcceptedBallot, resp.Term = v.acceptedB, &w
	}
	resp.Promise = v.promise
	v.tel.noteVote(req.Phase, resp.Granted, v.term.Epoch)
	return resp
}

// Accepted returns the voter's last accepted term and its ballot
// (ballot 0 while nothing has been accepted).
func (v *QuorumVoter) Accepted() (Term, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.term, v.acceptedB
}

// VoterPool is n quorum voters on loopback listeners — the in-process
// stand-in for a coordinator pool's voter endpoints, behind the
// conformance and chaos suites and the ha-quorum drill.
type VoterPool struct {
	Voters []*QuorumVoter

	srvs []*BinaryServer
}

// StartVoterPool boots n voters, one listener each. hub may be nil.
func StartVoterPool(n int, hub *telemetry.Hub) (*VoterPool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ctrlplane: voter pool size %d", n)
	}
	p := &VoterPool{}
	for i := 0; i < n; i++ {
		v := NewQuorumVoter(hub)
		srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Vote: v.Vote})
		if err != nil {
			p.Close()
			return nil, err
		}
		p.Voters = append(p.Voters, v)
		p.srvs = append(p.srvs, srv)
	}
	return p, nil
}

// URLs returns the voter base URLs in pool order.
func (p *VoterPool) URLs() []string {
	urls := make([]string, len(p.srvs))
	for i, srv := range p.srvs {
		urls[i] = srv.URL()
	}
	return urls
}

// StopVoter shuts one voter's listener down — a voter crash. Its
// in-memory acceptor state is unreachable from then on, like a
// process exit.
func (p *VoterPool) StopVoter(i int) { p.srvs[i].Close() }

// Close shuts every voter listener down.
func (p *VoterPool) Close() {
	for _, srv := range p.srvs {
		srv.Close()
	}
}
