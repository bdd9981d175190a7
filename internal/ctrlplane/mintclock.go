package ctrlplane

import "sync/atomic"

// mintClock is the granting side of the protocol clock — the twin of
// the members' leaseClock — embedded by Coordinator and Global: the
// leadership epoch, the grant sequence, the interval counter, and the
// one rule for when the next (seq, iv) pair may be minted. A fresh or
// restarted granter must hear a majority of its members' report echoes
// and adopt the highest interval and same-epoch sequence among them
// before it mints, so a crash–restart cannot re-issue a number an
// earlier grant already carries
// (docs/CONTROL_PLANE.md §Restart recovery). Fault-log text, telemetry
// and stats stay with the owner.
//
// epoch, seenEpoch and iv are atomics because fan-out goroutines and
// handlers read them concurrently with the control loop; everything
// else moves on the control loop only.
type mintClock struct {
	// epoch is the leadership epoch grants fan out under (1 unless an
	// HA wrapper moves it on election wins). seenEpoch is the highest
	// epoch observed in any response — above epoch means deposed.
	epoch     atomic.Uint64
	seenEpoch atomic.Uint64
	// iv is the interval counter (0 until the first mint), monotonic
	// across elections: setEpoch never rewinds it, which is what keeps
	// interval numbers unique for the life of the fleet.
	iv  atomic.Uint64
	seq uint64
	// rehydrated gates minting; maxSeenIv/maxSeenSeq are the harvest
	// ledger it is recovered from.
	rehydrated bool
	maxSeenIv  uint64
	maxSeenSeq uint64
}

// Epoch returns the leadership epoch grants currently fan out under.
func (m *mintClock) Epoch() uint64 { return m.epoch.Load() }

// PeakEpoch returns the highest epoch observed in any member response —
// above Epoch() means another granter leads.
func (m *mintClock) PeakEpoch() uint64 { return m.seenEpoch.Load() }

// Iv returns the protocol-clock interval counter: the last interval
// minted or echoed (0 before either). Unlike the epoch it is monotonic
// across elections.
func (m *mintClock) Iv() uint64 { return m.iv.Load() }

// setEpoch moves to leadership epoch e and reports whether that changed
// it — the owner's cue to invalidate its granted ledger. Call between
// steps only.
func (m *mintClock) setEpoch(e uint64) bool { return m.epoch.Swap(e) != e }

// noteEpoch folds an observed response epoch into the peak.
func (m *mintClock) noteEpoch(e uint64) {
	for {
		cur := m.seenEpoch.Load()
		if e <= cur || m.seenEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// deposed reports that some response carried an epoch above epoch.
func (m *mintClock) deposed(epoch uint64) bool { return m.seenEpoch.Load() > epoch }

// harvest folds one member's report echo — the highest interval it has
// seen, and the (epoch, seq) of the grant it holds — into the ledger.
// A sequence counts only when minted under the caller's own epoch:
// sequences restart with each leadership. It returns how many intervals
// the member lags the counter (0 when level or ahead).
func (m *mintClock) harvest(epoch, repIv, repEpoch, repSeq uint64) (lagIv uint64) {
	if repIv > m.maxSeenIv {
		m.maxSeenIv = repIv
	}
	if repEpoch == epoch && repSeq > m.maxSeenSeq {
		m.maxSeenSeq = repSeq
	}
	if cur := m.iv.Load(); cur > repIv {
		return cur - repIv
	}
	return 0
}

// settle closes one round's harvest over answered of members reports.
// The counter is lifted to the highest echo every round — a no-op for
// the active leader (reports echo its own mints), but it keeps a warm
// standby tracking the leader interval by interval, so a promotion
// mints above everything its predecessor issued, not above a boot-time
// snapshot. The first round a majority answers also adopts the highest
// same-epoch sequence and opens minting — no interval or sequence above
// these can have been granted, since a grant needs the same majority
// reachable — and settle reports true for that round only.
func (m *mintClock) settle(answered, members int) (rehydratedNow bool) {
	if m.maxSeenIv > m.iv.Load() {
		m.iv.Store(m.maxSeenIv)
	}
	if m.rehydrated || answered < members/2+1 {
		return false
	}
	if m.maxSeenSeq > m.seq {
		m.seq = m.maxSeenSeq
	}
	m.rehydrated = true
	return true
}

// mint issues the next grant sequence and interval number. The owner
// must hold its grants while !rehydrated: minting before a majority has
// been heard could re-issue an interval number a pre-restart grant
// already used, double-committing budget within one lease window.
func (m *mintClock) mint() (seq, iv uint64) {
	m.seq++
	return m.seq, m.iv.Add(1)
}
