package ctrlplane

// Per-agent circuit breakers. Without one, a blackholed agent charges
// every control interval its full RPC bill — retries × timeout for the
// scrape, then again for the assign — and with enough dead agents the
// interval's wall-clock budget goes to waiting on them instead of
// serving the live fleet. The breaker converts that steady bleed into
// a bounded probe cadence: after BreakerFails consecutive failed
// scrapes the coordinator stops dialing the agent entirely for
// BreakerOpenIntervals intervals (each skip still counts as a missed
// heartbeat, so membership expiry proceeds on schedule), then spends
// exactly one retry-free probe to see whether it came back. A probe
// that succeeds closes the breaker and the agent rejoins the normal
// scrape/grant flow the same interval.
//
// The breaker is off by default (BreakerFails = 0): the parity gates
// prove the networked replay bit-identical to the in-process oracle
// under the exact default RPC behavior, and an enabled breaker changes
// when RPCs happen, not what they grant.

// breakerState classifies one member's breaker.
type breakerState int

const (
	// breakerClosed: RPCs flow normally with the full retry budget.
	breakerClosed breakerState = iota
	// breakerOpen: RPCs are skipped outright this interval.
	breakerOpen
	// breakerHalfOpen: the open window has elapsed; spend one
	// single-attempt probe.
	breakerHalfOpen
)

func (c *Config) breakerEnabled() bool { return c.BreakerFails > 0 }

func (c *Config) breakerOpenIntervals() int {
	if c.BreakerOpenIntervals > 0 {
		return c.BreakerOpenIntervals
	}
	return 4
}

// breakerState returns the member's current breaker state. Read on
// fan-out goroutines; mutation happens only in the single-threaded
// accounting loop between fan-outs, so no lock is needed beyond the
// step's own ordering.
func (c *Coordinator) breakerState(m *member) breakerState {
	if !c.cfg.breakerEnabled() || m.breakerFails < c.cfg.BreakerFails {
		return breakerClosed
	}
	if m.breakerOpenLeft > 0 {
		return breakerOpen
	}
	return breakerHalfOpen
}

// breakerNoteFailure records one failed scrape and reports whether it
// opened (or re-opened, after a failed probe) the breaker.
func (c *Coordinator) breakerNoteFailure(m *member) bool {
	m.breakerFails++
	if c.cfg.breakerEnabled() && m.breakerFails >= c.cfg.BreakerFails {
		m.breakerOpenLeft = c.cfg.breakerOpenIntervals()
		return true
	}
	return false
}

// breakerNoteSuccess resets the member's breaker and reports whether
// that closed a tripped one.
func (c *Coordinator) breakerNoteSuccess(m *member) bool {
	closed := c.cfg.breakerEnabled() && m.breakerFails >= c.cfg.BreakerFails
	m.breakerFails = 0
	m.breakerOpenLeft = 0
	return closed
}
