package ctrlplane

import (
	"fmt"

	"powerstruggle/internal/cluster"
)

// The shard↔global trunk of the two-tier budget tree (docs/WIRE.md §6,
// docs/CONTROL_PLANE.md §Hierarchy). The global apportioner treats a
// shard coordinator the way a shard coordinator treats an agent: it
// scrapes a ShardReport each interval (the membership heartbeat), and
// grants a ShardBudget carrying the global (Epoch, Seq) pair, which
// the shard fences exactly as agents fence assignments.

// ShardReport is one shard coordinator's interval summary, shipped up
// the trunk: membership, the rolled-up cap-utility curve the global DP
// apportions against, and the live draw/demand the headroom rebalancer
// consumes.
type ShardReport struct {
	V     int `json:"v"`
	Shard int `json:"shard"`
	// Epoch and Seq are the shard's local leadership epoch and step
	// counter — the shard tier's own fencing pair, distinct from the
	// global epoch the budget grants carry.
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
	// T is the shard clock at the summarized interval.
	T float64 `json:"t"`
	// Leading reports that the answering coordinator currently leads
	// its shard; the global tries the shard's trunk URLs in order until
	// a leader answers.
	Leading bool `json:"leading"`
	// Agents counts members holding a live membership lease.
	Agents int `json:"agents"`
	// FloorW sums the live members' idle floors; DemandW estimates the
	// watts the shard could usefully absorb right now (saturated
	// members count at nameplate, idle ones at their draw); UsedW sums
	// the scraped grid draw; CapW sums the budgets in force.
	FloorW  float64 `json:"floorW"`
	DemandW float64 `json:"demandW"`
	UsedW   float64 `json:"usedW"`
	CapW    float64 `json:"capW"`
	// BudgetW is the shard budget in force (the last applied
	// ShardBudget grant; the bootstrap budget before the first).
	BudgetW float64 `json:"budgetW"`
	// Starved reports the shard's budget lease has lapsed — it is
	// holding its last budget and granting nothing larger.
	Starved bool `json:"starved,omitempty"`
	// Curve is the shard's aggregate cap-utility rollup
	// (cluster.Apportioner.Rollup); empty when any live member is
	// curveless, which sends the global to its even-share fallback for
	// this shard. Read-only: a ShardCoordinator hands every Report caller
	// the same memoized slice, interval after interval, until a member
	// curve changes — copy before editing. Report leaves it out when the
	// request holds CurveVer.
	Curve []cluster.CapPoint `json:"curve,omitempty"`
	// CurveVer is the rollup's content digest (curveVersion), 0 for none:
	// a shard's leader and standby agree on it when their rollups agree.
	CurveVer uint64 `json:"curveVer,omitempty"`
	// GEpoch/GSeq/GIv are the global-tier fencing epoch, sequence, and
	// protocol-clock interval of the last applied budget grant (all 0
	// before the first). A restarting global apportioner rehydrates its
	// sequence and interval counters from a majority of these, so a
	// crash–restart cannot re-issue interval numbers down the trunk.
	GEpoch uint64 `json:"gEpoch,omitempty"`
	GSeq   uint64 `json:"gSeq,omitempty"`
	GIv    uint64 `json:"gIv,omitempty"`
}

// Validate enforces the shard-report invariants.
func (r ShardReport) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: shard report protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Shard < 0 {
		return fmt.Errorf("ctrlplane: shard report shard %d", r.Shard)
	}
	if r.Agents < 0 {
		return fmt.Errorf("ctrlplane: shard report %d agents", r.Agents)
	}
	if !finite(r.T) || r.T < 0 {
		return fmt.Errorf("ctrlplane: shard report time %g", r.T)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"floor", r.FloorW}, {"demand", r.DemandW}, {"used", r.UsedW},
		{"cap", r.CapW}, {"budget", r.BudgetW},
	} {
		if !finite(f.v) || f.v < 0 {
			return fmt.Errorf("ctrlplane: shard report %s %g W", f.name, f.v)
		}
	}
	return validateCurve(r.Curve, r.CurveVer, "shard report")
}

// ShardReportRequest asks one shard coordinator for its trunk summary.
type ShardReportRequest struct {
	V     int     `json:"v"`
	Shard int     `json:"shard"`
	T     float64 `json:"t"`
	HasT  bool    `json:"hasT,omitempty"`
	// Iv broadcasts the global protocol clock on every trunk scrape (0
	// before the global's first mint). Scrapes reach every shard each
	// interval even when the grant deadband skips a re-grant, so the
	// shard's clock keeps advancing.
	Iv uint64 `json:"iv,omitempty"`
	// Held is the rollup version the global holds (0: none).
	Held uint64 `json:"held,omitempty"`
}

// Validate enforces the request invariants.
func (r ShardReportRequest) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: shard report request protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Shard < 0 {
		return fmt.Errorf("ctrlplane: shard report request shard %d", r.Shard)
	}
	if r.HasT && (!finite(r.T) || r.T < 0) {
		return fmt.Errorf("ctrlplane: shard report request time %g", r.T)
	}
	if !r.HasT && r.T != 0 {
		return fmt.Errorf("ctrlplane: shard report request time %g without hasT", r.T)
	}
	return nil
}

// ShardBudgetRequest grants one shard its slice of the cluster cap —
// the trunk mirror of AssignRequest, fenced by the global (Epoch, Seq)
// pair.
type ShardBudgetRequest struct {
	V     int     `json:"v"`
	Epoch uint64  `json:"epoch"`
	Seq   uint64  `json:"seq"`
	Shard int     `json:"shard"`
	T     float64 `json:"t"`
	CapW  float64 `json:"capW"`
	// Iv/LeaseIv/IvS mirror AssignRequest's protocol-clock triple: the
	// shard's budget lease lapses once its effective global interval
	// reaches Iv+LeaseIv; past that the shard holds its last budget and
	// reports itself starved.
	Iv      uint64  `json:"iv"`
	LeaseIv uint64  `json:"leaseIv"`
	IvS     float64 `json:"ivS"`
}

// Validate enforces the budget-grant invariants.
func (r ShardBudgetRequest) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: shard budget protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Epoch == 0 {
		return fmt.Errorf("ctrlplane: shard budget epoch 0 (epochs start at 1)")
	}
	if r.Seq == 0 {
		return fmt.Errorf("ctrlplane: shard budget seq 0 (sequence numbers start at 1)")
	}
	if r.Shard < 0 {
		return fmt.Errorf("ctrlplane: shard budget shard %d", r.Shard)
	}
	if !finite(r.T) || r.T < 0 {
		return fmt.Errorf("ctrlplane: shard budget time %g", r.T)
	}
	if !finite(r.CapW) || r.CapW < 0 {
		return fmt.Errorf("ctrlplane: shard budget cap %g W", r.CapW)
	}
	if err := validateClockFields(r.Iv, r.LeaseIv, r.IvS); err != nil {
		return fmt.Errorf("ctrlplane: shard budget %w", err)
	}
	return nil
}

// ShardBudgetResponse acknowledges a budget grant: Applied when the
// grant took; otherwise Epoch/Seq echo the shard's fencing ledger so
// the global can tell a duplicate of its own grant (in force, counts
// as granted) from a refusal by a shard that has moved to a newer
// global epoch (this apportioner is deposed).
type ShardBudgetResponse struct {
	V       int     `json:"v"`
	Shard   int     `json:"shard"`
	Epoch   uint64  `json:"epoch"`
	Seq     uint64  `json:"seq"`
	Applied bool    `json:"applied"`
	CapW    float64 `json:"capW"`
	// Iv is the highest global protocol-clock interval the shard has
	// observed.
	Iv uint64 `json:"iv,omitempty"`
}
