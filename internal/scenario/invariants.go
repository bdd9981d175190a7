package scenario

import (
	"fmt"
	"math"
	"strings"

	"powerstruggle/internal/ctrlplane"
)

// Result is one campaign run: a deterministic invariant log (the byte
// stream replays are compared on), the violations found, and summary
// counters the tests and the CLI assert against.
type Result struct {
	Campaign Campaign
	// Log is the canonical step-by-step record. Two runs of the same
	// campaign must produce identical logs, byte for byte.
	Log []string
	// Violations are invariant breaches, in discovery order. Empty
	// means the campaign passed.
	Violations []string

	// SafeModeSteps counts steps where at least one agent rode a lost
	// leader in safe mode.
	SafeModeSteps int
	// LeaderlessMinCapW is the smallest fleet cap sum observed while
	// leaderless with agents in safe mode (+Inf if never leaderless) —
	// the "did the fleet cliff to zero?" witness.
	LeaderlessMinCapW float64
	// LeaseExpiries and Rejoins mirror the coordinator's membership
	// counters (control-plane families), accumulated across coordinator
	// restarts.
	LeaseExpiries int
	Rejoins       int
	// Rehydrations counts interval-counter rehydrations from fleet
	// scrapes (protocol-clock campaigns with coordinator restarts).
	Rehydrations int
	// LearnUnconverged counts fleet members whose learned curve was
	// still partial at run end, and LearnMinConfidence is the smallest
	// coverage fraction any member reached (learning campaigns only).
	LearnUnconverged   int
	LearnMinConfidence float64
	// FinalEpoch is the leadership epoch the run ended under.
	FinalEpoch uint64
	// Failovers, ShardExpiries, and ShardReclaims count the hierarchy
	// family's shard-tier leadership takeovers, global-membership
	// expiries, and reservation reclaims.
	Failovers     int
	ShardExpiries int
	ShardReclaims int
	// ShortfallJ, DischargedJ, ChargedJ total the ESD families' energy
	// movement over the run.
	ShortfallJ  float64
	DischargedJ float64
	ChargedJ    float64
}

// Ok reports whether every invariant held.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// LogText renders the canonical log as one byte stream.
func (r *Result) LogText() string {
	return strings.Join(r.Log, "\n") + "\n"
}

func (r *Result) logf(format string, args ...any) {
	r.Log = append(r.Log, fmt.Sprintf(format, args...))
}

func (r *Result) violatef(format string, args ...any) {
	v := fmt.Sprintf(format, args...)
	r.Violations = append(r.Violations, v)
	r.Log = append(r.Log, "VIOLATION "+v)
}

// ctrlChecker holds the cross-step state the control-plane invariants
// need: the previous cap (one lease of grace after a cap change), the
// cap in force at the last leading grant (what a leaderless fleet's
// held budgets must stay under), and the last observed epoch.
type ctrlChecker struct {
	prevCapW     float64
	lastLeadCapW float64
	lastEpoch    uint64
	// lastIv is the highest interval any coordinator incarnation has
	// minted — a mint at or below it means a restarted coordinator
	// re-issued an interval number, the exact duplication rehydration
	// exists to prevent.
	lastIv uint64
	// learn marks an online-learning campaign: the checker then audits
	// that no probing member enforces more than its granted budget while
	// its curve is partial, and the log carries the fleet's coverage.
	learn bool
}

// check audits one control interval after the agents ticked. The cap
// invariant: the fleet's summed enforced caps never exceed the largest
// budget any live lease could still legitimately carry — this step's
// cap, last step's cap (a lease granted before a drop is honored until
// it lapses), or the cap at the last leading grant (all a leaderless
// fleet in safe mode may hold).
func (ck *ctrlChecker) check(r *Result, step int, t, capW float64, led bool,
	res ctrlplane.StepResult, agents []*ctrlplane.Agent, epoch uint64) {

	var capSum, gridSum float64
	safe, fenced := 0, 0
	for _, a := range agents {
		capSum += a.CapW()
		gridSum += a.GridW()
		if a.SafeMode() {
			safe++
		}
		if a.Fenced() {
			fenced++
		}
	}
	if led {
		ck.lastLeadCapW = capW
	}
	allowed := math.Max(capW, math.Max(ck.prevCapW, ck.lastLeadCapW))
	if capSum > allowed+1e-6 {
		r.violatef("step=%03d fleet cap sum %.3f W exceeds allowed %.3f W (cap=%.3f prev=%.3f lastLead=%.3f)",
			step, capSum, allowed, capW, ck.prevCapW, ck.lastLeadCapW)
	}
	if epoch < ck.lastEpoch {
		r.violatef("step=%03d epoch went backward: %d after %d", step, epoch, ck.lastEpoch)
	}
	granted := 0
	if led {
		for i, g := range res.Granted {
			if !g {
				continue
			}
			granted++
			// No lease honored across epochs: a grant acknowledged this
			// interval must have been applied under the current epoch.
			if got := agents[i].LastEpoch(); got != epoch {
				r.violatef("step=%03d agent %d granted under epoch %d but applied epoch %d",
					step, i, epoch, got)
			}
		}
	}
	for i, a := range agents {
		if got := a.LastEpoch(); got > epoch {
			r.violatef("step=%03d agent %d at epoch %d ahead of coordinator epoch %d",
				step, i, got, epoch)
		}
	}
	if safe > 0 {
		r.SafeModeSteps++
		if !led && capSum < r.LeaderlessMinCapW {
			r.LeaderlessMinCapW = capSum
		}
	}
	// Learning campaigns carry the fleet's coverage in the log and pin
	// the local half of the cap invariant: a probing member self-caps,
	// so while its curve is partial it may only undershoot this
	// interval's granted budget, never overshoot it.
	learn := ""
	if ck.learn {
		unconv := 0
		minConf := 1.0
		for i, a := range agents {
			if !a.Learning() {
				continue
			}
			if v := a.LearnConfidence(); v < minConf {
				minConf = v
			}
			if a.LearnConverged() {
				continue
			}
			unconv++
			if led && i < len(res.Budgets) && res.Granted[i] && a.CapW() > res.Budgets[i]+1e-9 {
				r.violatef("step=%03d learning agent %d enforces %.3f W over its %.3f W grant with a partial curve",
					step, i, a.CapW(), res.Budgets[i])
			}
		}
		learn = fmt.Sprintf(" unconv=%d minconf=%.3f", unconv, minConf)
	}
	if led && res.Iv > 0 {
		if res.Iv <= ck.lastIv {
			r.violatef("step=%03d coordinator minted interval %d, already used through %d",
				step, res.Iv, ck.lastIv)
		}
		ck.lastIv = res.Iv
	}
	r.logf("step=%03d t=%.0f cap=%.3f capsum=%.3f grid=%.3f granted=%d safe=%d fenced=%d epoch=%d led=%d iv=%d rehydrating=%d%s",
		step, t, capW, capSum, gridSum, granted, safe, fenced, epoch, b2i(led), res.Iv, b2i(res.Rehydrating), learn)
	ck.prevCapW = capW
	ck.lastEpoch = epoch
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
