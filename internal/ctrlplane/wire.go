package ctrlplane

import (
	"fmt"
	"math"
	"net/url"
	"strings"

	"powerstruggle/internal/cluster"
)

// ProtocolV is the control-plane wire version; both sides reject
// anything else, so a mixed-version fleet fails loudly instead of
// misinterpreting budgets. v2 added coordinator epochs (leader-election
// fencing) and agent registration; the strict decoders mean a v1 peer
// rejects the new fields rather than silently ignoring them. v3 made
// the protocol clock the only lease: grants lost their seconds lease
// and LeaseResponse reports the lapse boundary in intervals. v4 retired
// the one-agent scrape, assign and lease frames and the leader probe:
// every agent scrape and grant rides a batch frame, so a v3 peer that
// still sends them is refused at the header. v5 gave every curve a
// version, its content digest, and scrapes the versions the scraper
// holds: an unchanged curve stays home.
const ProtocolV = 5

// Vote phases. A campaign is one prepare round (claim a ballot, learn
// the newest accepted term) followed by one accept round (write the
// decided term back); both commit only on a majority of voters.
const (
	VotePrepare = "prepare"
	VoteAccept  = "accept"
)

// AssignRequest grants one server a power budget. The grant is also a
// lease renewal: the agent may draw up to CapW until its effective
// protocol-clock interval reaches Iv+LeaseIv, after which it fences
// itself. It never crosses the wire: the listener builds one per batch
// grant entry (BinaryServer.grantOne) from a BatchGrantRequest that has
// passed Validate.
type AssignRequest struct {
	V int `json:"v"`
	// Epoch is the granting coordinator's leadership epoch. Agents
	// order grants by (Epoch, Seq): anything not strictly newer than
	// the last applied pair is acknowledged without effect, which is
	// what fences a deposed leader's in-flight fan-out exactly like a
	// stale lease. Epochs start at 1 (a single coordinator runs its
	// whole life in epoch 1).
	Epoch  uint64  `json:"epoch"`
	Seq    uint64  `json:"seq"`
	Server int     `json:"server"`
	T      float64 `json:"t"`
	CapW   float64 `json:"capW"`
	// Iv is the protocol-clock interval this grant was minted in —
	// the coordinator's interval counter, monotonic across epochs and
	// at least 1.
	Iv uint64 `json:"iv"`
	// LeaseIv is the lease length in protocol intervals (at least 1):
	// the lease lapses once the agent's effective interval reaches
	// Iv+LeaseIv — identically for trace-replay agents and wall-clock
	// daemons.
	LeaseIv uint64 `json:"leaseIv"`
	// IvS is the nominal interval length in seconds (positive), which
	// agents use to age the protocol clock locally when the coordinator
	// stalls (no new interval observed ⇒ the clock keeps counting at
	// IvS).
	IvS float64 `json:"ivS"`
}

// validateClockFields enforces the protocol-clock triple every grant,
// renewal and shard budget carries: a mint interval, a lease length in
// intervals, and a nominal interval length to age the lease against. A
// message without all three would mint a budget that never lapses.
func validateClockFields(iv, leaseIv uint64, ivS float64) error {
	if iv == 0 || leaseIv == 0 || !finite(ivS) || ivS <= 0 {
		return fmt.Errorf("lease clock iv=%d leaseIv=%d ivS=%g (need iv >= 1, leaseIv >= 1, ivS > 0)", iv, leaseIv, ivS)
	}
	return nil
}

// AssignResponse acknowledges a budget grant with the agent's state
// after applying it; on the wire it is a batch grant reply's slot.
type AssignResponse struct {
	V      int `json:"v"`
	Server int `json:"server"`
	// Epoch is the highest coordinator epoch the agent has applied a
	// grant from. A coordinator seeing an Epoch above its own in any
	// response has been deposed and must stop granting.
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	// Applied is false when the request was stale (its Seq not newer
	// than the last applied one); the reported state is then the
	// in-force assignment, not the request's.
	Applied bool    `json:"applied"`
	CapW    float64 `json:"capW"`
	PerfN   float64 `json:"perfN"`
	GridW   float64 `json:"gridW"`
	SoC     float64 `json:"soc"`
	Fenced  bool    `json:"fenced"`
	// SafeMode reports leaderless degradation in progress: the agent is
	// fenced but holding/decaying its last granted cap instead of
	// cliffing to the fence cap.
	SafeMode bool `json:"safeMode,omitempty"`
	// Iv is the highest protocol-clock interval the agent has observed
	// (0 before its first grant or renewal).
	Iv uint64 `json:"iv,omitempty"`
}

// Report is one telemetry scrape: the agent's enforced cap, draw,
// battery state, and (optionally) its cap-utility curve for the
// coordinator's apportioning DP. On the wire it is a batch scrape
// reply's slot.
type Report struct {
	V      int `json:"v"`
	Server int `json:"server"`
	// Epoch is the highest coordinator epoch the agent has applied a
	// grant from (0 before the first grant) — how a warm standby learns
	// the cluster's current epoch from scrapes alone.
	Epoch  uint64  `json:"epoch"`
	Seq    uint64  `json:"seq"`
	CapW   float64 `json:"capW"`
	PerfN  float64 `json:"perfN"`
	GridW  float64 `json:"gridW"`
	SoC    float64 `json:"soc"`
	Fenced bool    `json:"fenced"`
	// SafeMode mirrors AssignResponse.SafeMode: fenced, but degrading
	// gracefully rather than cliffed at the fence cap.
	SafeMode   bool    `json:"safeMode,omitempty"`
	IdleFloorW float64 `json:"idleFloorW"`
	NameplateW float64 `json:"nameplateW"`
	// UtilityCurve samples cap → (perf, grid) on the shared
	// ServerCapStepW grid. Agents that cannot characterize themselves
	// yet (a live daemon still learning its mix) omit it; the
	// coordinator then falls back to even apportioning for them. A scrape
	// slot leaves it out when the scraper holds CurveVer.
	UtilityCurve []cluster.CapPoint `json:"utilityCurve,omitempty"`
	// CurveVer is the curve's content digest (curveVersion), 0 for none.
	CurveVer uint64 `json:"curveVer,omitempty"`
	// CurveConf and CurveCells qualify an online-learned UtilityCurve:
	// the estimator's coverage confidence in [0, 1] and the number of
	// cap cells actually observed. Pre-characterized curves (trace
	// replay agents) omit both — absence means full trust. The
	// coordinator treats a learned curve below its confidence floor as
	// no curve at all
	// (docs/CONTROL_PLANE.md §Online utility learning).
	CurveConf  float64 `json:"curveConf,omitempty"`
	CurveCells int     `json:"curveCells,omitempty"`
	// Version is the agent's build version, surfaced so a fleet
	// upgrade can be audited from the coordinator.
	Version string `json:"version,omitempty"`
	// Iv is the highest protocol-clock interval the agent has observed
	// (0 before its first grant or renewal). A restarting coordinator
	// rehydrates its interval counter from a majority of these before
	// granting, so a crash–restart cannot re-issue interval numbers.
	Iv uint64 `json:"iv,omitempty"`
}

// Validate enforces the report invariants the apportioning DP depends
// on: finite non-negative power figures and a strictly increasing,
// finite utility curve.
func (r Report) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: report protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Server < 0 {
		return fmt.Errorf("ctrlplane: report server %d", r.Server)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"capW", r.CapW}, {"perfN", r.PerfN}, {"gridW", r.GridW},
		{"idleFloorW", r.IdleFloorW}, {"nameplateW", r.NameplateW},
	} {
		if !finite(f.v) || f.v < 0 {
			return fmt.Errorf("ctrlplane: report %s = %g", f.name, f.v)
		}
	}
	if !finite(r.SoC) || r.SoC < 0 || r.SoC > 1 {
		return fmt.Errorf("ctrlplane: report soc = %g outside [0, 1]", r.SoC)
	}
	if err := validateCurve(r.UtilityCurve, r.CurveVer, "report"); err != nil {
		return err
	}
	if !finite(r.CurveConf) || r.CurveConf < 0 || r.CurveConf > 1 {
		return fmt.Errorf("ctrlplane: report curveConf = %g outside [0, 1]", r.CurveConf)
	}
	if r.CurveCells < 0 || uint64(r.CurveCells) > math.MaxUint32 {
		return fmt.Errorf("ctrlplane: report curveCells = %d outside the wire's u32", r.CurveCells)
	}
	if (r.CurveConf != 0 || r.CurveCells != 0) && r.CurveVer == 0 {
		return fmt.Errorf("ctrlplane: report curve meta (conf %g, %d cells) without a curve", r.CurveConf, r.CurveCells)
	}
	return nil
}

// validateCurve enforces what the apportioning DP needs of a curve —
// finite, non-negative points on strictly increasing caps — and that
// points on the wire carry their own version.
func validateCurve(c []cluster.CapPoint, ver uint64, what string) error {
	prev := math.Inf(-1)
	for i, p := range c {
		if !finite(p.CapW) || !finite(p.Perf) || !finite(p.GridW) ||
			p.CapW < 0 || p.Perf < 0 || p.GridW < 0 {
			return fmt.Errorf("ctrlplane: %s curve point %d = %+v", what, i, p)
		}
		if p.CapW <= prev {
			return fmt.Errorf("ctrlplane: %s curve caps must increase (%g after %g)", what, p.CapW, prev)
		}
		prev = p.CapW
	}
	if len(c) > 0 && ver != curveVersion(c) {
		return fmt.Errorf("ctrlplane: %s curve version %#x, its points hash to %#x", what, ver, curveVersion(c))
	}
	return nil
}

// curveVersion is a curve's version: the 64-bit FNV-1a digest of its
// points' wire encoding, or 1 if that is 0, which means no curve. Two
// processes agree on it exactly when their curves agree.
func curveVersion(c []cluster.CapPoint) uint64 {
	if len(c) == 0 {
		return 0
	}
	h := uint64(14695981039346656037) // the FNV-1a offset basis
	for _, p := range c {
		for _, f := range [3]float64{p.CapW, p.Perf, p.GridW} {
			for bits, shift := math.Float64bits(f), 56; shift >= 0; shift -= 8 {
				h = (h ^ (bits >> shift & 0xff)) * 1099511628211 // the FNV prime
			}
		}
	}
	return max(h, 1)
}

// curveMemo holds the version of the last curve slice it was shown:
// curves are replaced, never written in place, so only a new slice is
// hashed — a static curve once, a learned or rolled-up one per rebuild.
type curveMemo struct {
	curve []cluster.CapPoint
	ver   uint64
}

func (m *curveMemo) version(c []cluster.CapPoint) uint64 {
	if len(c) != len(m.curve) || (len(c) > 0 && &c[0] != &m.curve[0]) {
		m.curve, m.ver = c, curveVersion(c)
	}
	return m.ver
}

// LeaseRequest renews an agent's draw lease without changing its
// budget. Only the epoch that granted the in-force budget may renew
// it: a renewal from any other epoch is answered with current state
// but does not move the lease clock. Like AssignRequest it never
// crosses the wire: a batch grant entry marked Renew becomes one.
type LeaseRequest struct {
	V      int     `json:"v"`
	Epoch  uint64  `json:"epoch"`
	Server int     `json:"server"`
	T      float64 `json:"t"`
	// Iv/LeaseIv/IvS mirror AssignRequest's protocol-clock triple: a
	// renewal re-anchors the lease at the renewing interval.
	Iv      uint64  `json:"iv"`
	LeaseIv uint64  `json:"leaseIv"`
	IvS     float64 `json:"ivS"`
}

// LeaseResponse acknowledges a renewal. Epoch is the agent's highest
// applied epoch: a renewing coordinator whose epoch is lower has been
// deposed — its renewal did not extend anything.
type LeaseResponse struct {
	V      int     `json:"v"`
	Epoch  uint64  `json:"epoch"`
	Server int     `json:"server"`
	CapW   float64 `json:"capW"`
	// ExpiresIv is the interval at which the in-force lease lapses —
	// the grant's Iv+LeaseIv as last moved by an accepted renewal — and
	// 0 while the agent is fenced.
	ExpiresIv uint64 `json:"expiresIv"`
	Fenced    bool   `json:"fenced"`
	// Iv is the highest protocol-clock interval the agent has observed.
	Iv uint64 `json:"iv,omitempty"`
}

// RegisterRequest announces one agent to the coordinator: its fleet
// index, base URL, and nameplate. Agents send it at boot (and may
// re-send after a restart with a new URL); scrape heartbeats keep the
// member listed afterwards.
type RegisterRequest struct {
	V      int    `json:"v"`
	Server int    `json:"server"`
	URL    string `json:"url"`
	// NameplateW is advisory (the scrape carries the authoritative
	// figure); it lets the coordinator log what joined.
	NameplateW float64 `json:"nameplateW"`
}

// maxURLBytes bounds a registered URL; anything longer is garbage.
const maxURLBytes = 2048

// Validate enforces the registration invariants.
func (r RegisterRequest) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: register protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Server < 0 {
		return fmt.Errorf("ctrlplane: register server %d", r.Server)
	}
	if len(r.URL) > maxURLBytes {
		return fmt.Errorf("ctrlplane: register url %d bytes", len(r.URL))
	}
	if err := validateURL(r.URL); err != nil {
		return fmt.Errorf("ctrlplane: register %w", err)
	}
	if !finite(r.NameplateW) || r.NameplateW < 0 {
		return fmt.Errorf("ctrlplane: register nameplate %g W", r.NameplateW)
	}
	return nil
}

// RegisterResponse acknowledges a registration and tells the agent who
// currently leads, so an agent announcing to a standby knows where
// grants will come from.
type RegisterResponse struct {
	V        int    `json:"v"`
	Server   int    `json:"server"`
	Accepted bool   `json:"accepted"`
	Epoch    uint64 `json:"epoch"`
	Leader   bool   `json:"leader"`
	LeaderID string `json:"leaderID,omitempty"`
}

// maxLeaderBytes bounds a candidate identity on the wire; anything
// longer than a hostname-pid pair is garbage.
const maxLeaderBytes = 256

// WireTerm is a Term on the wire. Expiry travels as Unix nanoseconds
// (0 encodes the zero time — a resigned term) so an encode/decode
// round trip preserves the instant exactly: serializing time.Time
// directly would drag location names and RFC 3339 truncation into the
// voters' equality checks.
type WireTerm struct {
	Epoch           uint64 `json:"epoch"`
	Leader          string `json:"leader"`
	ExpiresUnixNano int64  `json:"expiresUnixNano"`
}

// Validate enforces the term invariants every voter stores.
func (t WireTerm) Validate() error {
	if t.Epoch == 0 {
		return fmt.Errorf("ctrlplane: vote term epoch 0 (epochs start at 1)")
	}
	if t.Leader == "" {
		return fmt.Errorf("ctrlplane: vote term with empty leader")
	}
	if len(t.Leader) > maxLeaderBytes {
		return fmt.Errorf("ctrlplane: vote term leader %d bytes", len(t.Leader))
	}
	if t.ExpiresUnixNano < 0 {
		return fmt.Errorf("ctrlplane: vote term expiry %d ns", t.ExpiresUnixNano)
	}
	return nil
}

// VoteRequest is one phase of a quorum-store consensus round. Ballots
// totally order proposals across the pool (the round counter in the
// high bits, a hash of the proposer identity in the low bits keeps
// them unique); prepare claims a ballot, accept proposes a term under
// a claimed one.
type VoteRequest struct {
	V      int    `json:"v"`
	Phase  string `json:"phase"`
	Ballot uint64 `json:"ballot"`
	// Term is the proposed value — required for accept, absent for
	// prepare.
	Term *WireTerm `json:"term,omitempty"`
}

// Validate enforces the vote invariants the voters' ordering depends
// on.
func (r VoteRequest) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: vote protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Ballot == 0 {
		return fmt.Errorf("ctrlplane: vote ballot 0 (ballots start at 1)")
	}
	switch r.Phase {
	case VotePrepare:
		if r.Term != nil {
			return fmt.Errorf("ctrlplane: prepare carries a term")
		}
	case VoteAccept:
		if r.Term == nil {
			return fmt.Errorf("ctrlplane: accept without a term")
		}
		if err := r.Term.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("ctrlplane: vote phase %q", r.Phase)
	}
	return nil
}

// VoteResponse is a voter's answer. Promise is its promised ballot
// after the call — a rejected proposer bumps its next ballot past it.
// AcceptedBallot and Term report the voter's last accepted value
// (both absent while it has none); prepare grants carry it so the
// proposer adopts the newest possibly-committed term before deciding.
type VoteResponse struct {
	V              int       `json:"v"`
	Granted        bool      `json:"granted"`
	Promise        uint64    `json:"promise"`
	AcceptedBallot uint64    `json:"acceptedBallot,omitempty"`
	Term           *WireTerm `json:"term,omitempty"`
}

// Validate enforces the voter-answer invariants the proposer adopts
// values under.
func (r VoteResponse) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: vote response protocol v%d, want v%d", r.V, ProtocolV)
	}
	if (r.AcceptedBallot == 0) != (r.Term == nil) {
		return fmt.Errorf("ctrlplane: vote response accepted ballot %d with term %v", r.AcceptedBallot, r.Term)
	}
	if r.AcceptedBallot > r.Promise {
		return fmt.Errorf("ctrlplane: vote response accepted ballot %d above promise %d", r.AcceptedBallot, r.Promise)
	}
	if r.Term != nil {
		return r.Term.Validate()
	}
	return nil
}

// finite reports whether v is a usable float (not NaN or ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validateURL refuses anything but a tcp://host[:port] endpoint:
// binary frames over TCP are the only wire, so a URL of any other
// scheme names a transport that does not exist.
func validateURL(raw string) error {
	if u, err := url.Parse(raw); err != nil || u.Scheme != "tcp" || u.Host == "" {
		return fmt.Errorf("url %q (need tcp://host[:port])", raw)
	}
	return nil
}

// DefaultScheme prefixes addr with tcp:// when it has no scheme, so CLI
// address lists may hold bare host:port tokens.
func DefaultScheme(addr string) string {
	if addr == "" || strings.Contains(addr, "://") {
		return addr
	}
	return "tcp://" + addr
}
