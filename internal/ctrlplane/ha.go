package ctrlplane

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// HAConfig parameterizes one coordinator's participation in leader
// election.
type HAConfig struct {
	// ID is this coordinator's candidate identity (e.g. host:pid).
	ID string
	// Election is the shared store (required). Every coordinator of
	// the cluster must campaign on the same store.
	Election Election
	// TermTTL is the leadership lease length (default 1.5 × the
	// wrapped coordinator's IntervalS). The leader renews it every
	// control interval; the standby takes over one campaign after the
	// TTL lapses, so rank 1 leads within one interval of the leader's
	// silence. A longer TTL trades failover time for slack against a
	// slow step.
	TermTTL time.Duration
	// Clock supplies the campaign timestamps (default time.Now). The
	// chaos suite injects skewed and frozen clocks here.
	Clock func() time.Time
	// Priority ranks this member in the takeover order: rank 0
	// campaigns for a lapsed term immediately, rank k observes for
	// k × TermTTL/4 past the observed expiry first, so the preferred
	// standby wins the steal uncontested. Renewals, terms still in
	// force, and a member with no observed term yet are never held off
	// — priorities only order who steals a lapsed term.
	Priority int
}

// HA runs one coordinator as a member of a leader-elected pair (or
// trio): each control interval it campaigns on the shared store, then
// either leads — fanning grants out under its term's epoch — or
// observes, scraping the fleet so its membership view, utility curves,
// and budget decisions stay warm for takeover. Safety never rests on
// the election alone: grants carry the epoch, and agents refuse
// anything older than the newest epoch they have applied, so even a
// deposed leader that has not yet noticed cannot land a stale budget.
//
// Step and the accessors are safe for concurrent use (the coordinator's
// listener reads leadership state from its conn goroutines); Step itself
// must still be called from a single control loop, like
// Coordinator.Step.
type HA struct {
	c   *Coordinator
	cfg HAConfig

	mu        sync.Mutex
	leader    bool
	term      Term
	failovers int
	campErrs  int
	holdoffs  int
}

// NewHA wraps a coordinator with leader election.
func NewHA(c *Coordinator, cfg HAConfig) (*HA, error) {
	if c == nil {
		return nil, fmt.Errorf("ctrlplane: HA needs a coordinator")
	}
	if cfg.Election == nil {
		return nil, fmt.Errorf("ctrlplane: HA needs an election store")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("ctrlplane: HA needs a candidate id")
	}
	if cfg.TermTTL == 0 {
		cfg.TermTTL = time.Duration(1.5 * c.cfg.IntervalS * float64(time.Second))
	}
	if cfg.TermTTL <= 0 {
		return nil, fmt.Errorf("ctrlplane: HA term ttl %v", cfg.TermTTL)
	}
	if cfg.Priority < 0 {
		return nil, fmt.Errorf("ctrlplane: HA priority %d", cfg.Priority)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &HA{c: c, cfg: cfg}, nil
}

// Coordinator returns the wrapped coordinator.
func (h *HA) Coordinator() *Coordinator { return h.c }

// TermTTL returns the leadership lease length in force.
func (h *HA) TermTTL() time.Duration { return h.cfg.TermTTL }

// heldOff reports whether the takeover priority says to sit this
// campaign out: the last observed term has lapsed — a steal is on the
// table and a lower-ranked member's turn comes first — but this
// member's rank-scaled holdoff has not yet passed.
func (h *HA) heldOff(now time.Time) bool {
	if h.cfg.Priority <= 0 {
		return false
	}
	h.mu.Lock()
	term := h.term
	h.mu.Unlock()
	if term.Epoch == 0 || term.Leader == h.cfg.ID {
		// Nothing observed yet (bootstrap races are the store's to
		// serialize), or our own term, which a campaign only renews.
		return false
	}
	if now.Before(term.Expires) {
		// A term still in force: campaigning is pure observation, and
		// observing keeps the expiry we hold off against fresh.
		return false
	}
	return now.Before(term.Expires.Add(time.Duration(h.cfg.Priority) * (h.cfg.TermTTL / 4)))
}

// Step campaigns, then leads or observes one control interval.
func (h *HA) Step(ctx context.Context, t, capW float64) (StepResult, error) {
	now := h.cfg.Clock()
	if h.heldOff(now) {
		h.mu.Lock()
		h.leader = false
		h.holdoffs++
		h.mu.Unlock()
		h.c.tel.noteLeadership(h.c.Epoch(), false)
		return h.c.Observe(ctx, t, capW)
	}
	term, err := h.cfg.Election.Campaign(h.cfg.ID, now, h.cfg.TermTTL)
	if err != nil {
		// An unreachable or contended store proves nothing about
		// leadership, so assume the worst and only observe: a true
		// leader that keeps failing campaigns loses its term by TTL
		// and the standby picks the fleet up; meanwhile the agents'
		// draw leases lapse on their own, so the cap stays safe.
		h.mu.Lock()
		h.leader = false
		h.campErrs++
		h.mu.Unlock()
		h.c.tel.noteLeadership(h.c.Epoch(), false)
		res, oerr := h.c.Observe(ctx, t, capW)
		if oerr != nil {
			return res, oerr
		}
		return res, nil
	}

	lead := term.Leader == h.cfg.ID
	h.mu.Lock()
	if lead && term.Epoch > h.term.Epoch && term.Epoch > 1 {
		// Winning any epoch past 1 means a prior term (ours or
		// another's) lapsed or was resigned — a failover, distinct
		// from the cluster's bootstrap election, which mints epoch 1.
		h.failovers++
	}
	h.leader, h.term = lead, term
	failover := h.failovers
	h.mu.Unlock()

	if !lead {
		h.c.tel.noteLeadership(term.Epoch, false)
		return h.c.Observe(ctx, t, capW)
	}
	h.c.SetEpoch(term.Epoch)
	h.c.tel.noteLeadership(term.Epoch, true)
	h.c.tel.setFailovers(failover)
	res, err := h.c.Step(ctx, t, capW)
	if err == nil && res.Deposed {
		// Some agent already applied a higher epoch: another
		// coordinator holds a newer term than the one we renewed —
		// possible when our store read raced its write, or under
		// clock skew. Stand down immediately instead of waiting for
		// the next campaign to tell us.
		h.mu.Lock()
		h.leader = false
		h.mu.Unlock()
		h.c.tel.noteLeadership(term.Epoch, false)
	}
	return res, err
}

// Leader reports the last campaign's term and whether this node leads.
func (h *HA) Leader() (Term, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.term, h.leader
}

// Failovers counts leadership acquisitions after the bootstrap
// election — terms this node took over from a lapsed or resigned
// predecessor.
func (h *HA) Failovers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failovers
}

// CampaignErrors counts campaigns that failed against the store.
func (h *HA) CampaignErrors() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.campErrs
}

// Holdoffs counts intervals this member sat out a possible steal,
// yielding to a lower takeover rank.
func (h *HA) Holdoffs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.holdoffs
}

// Resign gives up leadership on the store (clean shutdown: the standby
// takes over on its next campaign instead of waiting out the TTL).
func (h *HA) Resign() error {
	h.mu.Lock()
	wasLeader := h.leader
	h.leader = false
	h.mu.Unlock()
	if !wasLeader {
		return nil
	}
	return h.cfg.Election.Resign(h.cfg.ID)
}

// ID returns the candidate identity.
func (h *HA) ID() string { return h.cfg.ID }

// Announce registers an agent with every coordinator URL given —
// agents announce to the whole coordinator set, not just the current
// leader, so a standby's membership view is warm before it ever wins a
// term. Every URL is posted to before returning. Returns the first
// leader-affirming response, or the first accepting one; err is
// non-nil only if every coordinator was unreachable or refused.
func Announce(ctx context.Context, coordURLs []string, req RegisterRequest, timeout time.Duration) (RegisterResponse, error) {
	if len(coordURLs) == 0 {
		return RegisterResponse{}, fmt.Errorf("ctrlplane: announce with no coordinator URLs")
	}
	if err := req.Validate(); err != nil {
		return RegisterResponse{}, err
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	bin := newBinaryTransport(nil, nil)
	defer bin.Close()
	var best RegisterResponse
	var lastErr error
	accepted, haveLeader := false, false
	// Post to every coordinator, even after the leader has accepted:
	// the whole point of announcing to the full set is that a standby's
	// membership view is warm before it ever wins a term.
	for _, base := range coordURLs {
		base = trimSlash(base)
		callCtx, cancel := context.WithTimeout(ctx, timeout)
		var reg RegisterResponse
		err := send(callCtx, bin, base, rpcRegister, req, &reg)
		cancel()
		if err != nil {
			lastErr = fmt.Errorf("ctrlplane: register at %s: %w", base, err)
			continue
		}
		if !reg.Accepted {
			lastErr = fmt.Errorf("ctrlplane: coordinator %s refused registration (static fleet?)", base)
			continue
		}
		if !accepted || (reg.Leader && !haveLeader) {
			best = reg
		}
		accepted = true
		haveLeader = haveLeader || reg.Leader
	}
	if accepted {
		return best, nil
	}
	return RegisterResponse{}, lastErr
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}
