package ctrlplane

// leaseClock is one member's reading of the protocol clock of the tier
// that grants it watts — an Agent's of its coordinator, a
// ShardCoordinator's of the global apportioner — and the only lease
// arithmetic in the control plane (docs/CONTROL_PLANE.md "Leases"). The
// owner supplies its own clock reading (now, in seconds) and guards the
// value with its own mutex.
type leaseClock struct {
	// grantIv/leaseIv/ivS are the in-force grant's clock triple: the
	// lease lapses once the effective interval reaches grantIv+leaseIv.
	// leaseIv is 0 while no lease is held.
	grantIv uint64
	leaseIv uint64
	ivS     float64
	// seenIv is the highest interval observed on any message from the
	// granting tier; seenT anchors it on the owner's clock so the
	// effective interval keeps counting at ivS when the granter stalls.
	seenIv uint64
	seenT  float64
	// skewIv is the last measured granter skew in intervals: locally
	// elapsed intervals minus minted intervals over the same span
	// (positive = the granter runs slow).
	skewIv float64
}

// observe folds one interval seen at local time now into the clock:
// measure skew against the locally elapsed span, then advance the
// high-water mark. Intervals at or below it are ignored.
func (c *leaseClock) observe(iv uint64, ivS, now float64) {
	if iv <= c.seenIv {
		return
	}
	if c.seenIv > 0 && ivS > 0 {
		c.skewIv = (now-c.seenT)/ivS - float64(iv-c.seenIv)
	}
	c.seenIv, c.seenT = iv, now
}

// grant anchors the lease on a grant or accepted renewal minted in
// interval iv.
func (c *leaseClock) grant(iv, leaseIv uint64, ivS float64) {
	c.grantIv, c.leaseIv, c.ivS = iv, leaseIv, ivS
}

// effective is the clock reading at local time now: the highest
// observed interval, advanced by whole nominal intervals of local time
// elapsed since that observation. While the granter mints on schedule
// the extrapolation stays at zero; when it stalls, the reading keeps
// counting at ivS — which is what lapses a lease on time whether the
// owner's clock is trace time or the wall.
func (c *leaseClock) effective(now float64) uint64 {
	dt := now - c.seenT
	if c.ivS <= 0 || dt <= 0 {
		return c.seenIv
	}
	return c.seenIv + uint64(dt/c.ivS)
}

// boundary is the interval at which the in-force lease lapses.
func (c *leaseClock) boundary() uint64 { return c.grantIv + c.leaseIv }

// lapsed reports whether a held lease has reached its boundary.
func (c *leaseClock) lapsed(now float64) bool {
	return c.leaseIv > 0 && c.effective(now) >= c.boundary()
}

// remainingS is the local clock time left before the boundary at the
// nominal interval length (0 at or past it, or with no lease held).
func (c *leaseClock) remainingS(now float64) float64 {
	if b := c.boundary(); c.leaseIv > 0 && b > c.seenIv {
		return max(float64(b-c.seenIv)*c.ivS-(now-c.seenT), 0)
	}
	return 0
}

// overdueIv counts whole intervals past the boundary (0 before it) —
// the age safe-mode decay runs on.
func (c *leaseClock) overdueIv(now float64) uint64 {
	if eff, b := c.effective(now), c.boundary(); eff > b {
		return eff - b
	}
	return 0
}
