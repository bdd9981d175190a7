package ctrlplane

import (
	"context"
	"fmt"
	"sync"

	"powerstruggle/internal/cluster"
)

// ShardConfig parameterizes one shard coordinator's place in the
// two-tier budget tree.
type ShardConfig struct {
	// Shard is this shard's id in the global apportioner's ShardRef set.
	Shard int
	// InitialBudgetW is the bootstrap budget the shard enforces before
	// its first ShardBudget grant arrives. The deployment invariant is
	// that the initial budgets across all shards sum to at most the
	// cluster cap (pscluster bootstraps every shard at cap/shards).
	InitialBudgetW float64
}

// rollupPoints bounds the aggregate curve shipped up the trunk: a few
// KiB per shard per interval.
const rollupPoints = 256

// saturationFrac is the draw/budget ratio past which a member is
// considered cap-limited: its demand is estimated one curve level
// above its grant rather than at its observed draw. 0.98 rather than
// 1.0 because enforcement clamps draw a hair under the budget.
const saturationFrac = 0.98

// ShardCoordinator runs one shard of the two-tier tree: the wrapped
// Coordinator (optionally behind its HA pair) drives the shard's fleet
// slice with the full flat protocol — scrape, membership, apportion,
// epoch-fenced grants, breakers — while this layer holds the budget
// the tier above granted, fences ShardBudget grants by the global
// (Epoch, Seq) pair exactly as agents fence assignments, and rolls the
// members' cap-utility curves up into the ShardReport the global DP
// apportions against.
//
// Step must run on a single control loop, like Coordinator.Step;
// Report and ApplyBudget are safe to call concurrently from server
// goroutines.
type ShardCoordinator struct {
	cfg ShardConfig
	c   *Coordinator
	ha  *HA

	mu sync.Mutex
	// budgetW is the shard budget in force. Once its lease lapses the
	// shard holds the budget — never grows it — and reports itself
	// starved; this is cap-safe because the silent global has reserved
	// the shard's last grant until its reclaim window passes. The
	// bootstrap budget, granted by nobody, carries no lease.
	budgetW float64
	starved bool
	// lastEpoch/lastSeq fence budget grants: the shard's mirror of
	// Agent.Assign's (epoch, seq) ledger, holding the GLOBAL epoch.
	lastEpoch uint64
	lastSeq   uint64
	// clk is the budget lease and the shard's reading of the global
	// protocol clock, fed by trunk scrapes and grants and read at the
	// shard's own step time.
	clk     leaseClock
	stepped bool
	// report is the last step's snapshot. Its Curve is the wrapped
	// coordinator's memoized rollup, shared with every Report caller and
	// with the next step: read-only to all of them (see ShardReport).
	report ShardReport
	// curves is refreshReport's scratch list of live effective curves,
	// rollup the served rollup's version.
	curves [][]cluster.CapPoint
	rollup curveMemo
}

// NewShardCoordinator wraps a coordinator as one shard of the tree.
func NewShardCoordinator(c *Coordinator, cfg ShardConfig) (*ShardCoordinator, error) {
	if c == nil {
		return nil, fmt.Errorf("ctrlplane: shard coordinator needs a coordinator")
	}
	if cfg.Shard < 0 {
		return nil, fmt.Errorf("ctrlplane: shard id %d", cfg.Shard)
	}
	if !finite(cfg.InitialBudgetW) || cfg.InitialBudgetW < 0 {
		return nil, fmt.Errorf("ctrlplane: shard initial budget %g W", cfg.InitialBudgetW)
	}
	return &ShardCoordinator{cfg: cfg, c: c, budgetW: cfg.InitialBudgetW}, nil
}

// NewShardCoordinatorHA wraps an HA pair member as one shard of the
// tree: the wrapped coordinator leads or observes per its elections,
// and the shard reports Leading accordingly so the global tries the
// peer when it scrapes a standby.
func NewShardCoordinatorHA(ha *HA, cfg ShardConfig) (*ShardCoordinator, error) {
	if ha == nil {
		return nil, fmt.Errorf("ctrlplane: shard coordinator needs an HA member")
	}
	sc, err := NewShardCoordinator(ha.Coordinator(), cfg)
	if err != nil {
		return nil, err
	}
	sc.ha = ha
	return sc, nil
}

// Coordinator returns the wrapped coordinator.
func (s *ShardCoordinator) Coordinator() *Coordinator { return s.c }

// BudgetW returns the shard budget currently in force.
func (s *ShardCoordinator) BudgetW() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budgetW
}

// Starved reports the shard's budget lease has lapsed.
func (s *ShardCoordinator) Starved() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.starved
}

// Step drives one shard control interval at trace time t: run the
// wrapped coordinator (or HA member) under the budget in force, then
// refresh the trunk report snapshot from the post-step member state.
func (s *ShardCoordinator) Step(ctx context.Context, t float64) (StepResult, error) {
	s.mu.Lock()
	if s.clk.lapsed(t) {
		// The budget lease lapsed without a fresh grant: hold the last
		// budget (never grow it) and say so in the next report.
		s.starved = true
	}
	budget := s.budgetW
	s.mu.Unlock()

	var res StepResult
	var err error
	if s.ha != nil {
		res, err = s.ha.Step(ctx, t, budget)
	} else {
		res, err = s.c.Step(ctx, t, budget)
	}
	if err != nil {
		return res, err
	}
	s.refreshReport(t, budget)
	return res, nil
}

// refreshReport rebuilds the trunk snapshot. Runs on the control-loop
// goroutine right after a step, so the member state it reads is
// settled.
func (s *ShardCoordinator) refreshReport(t, budget float64) {
	rep := ShardReport{V: ProtocolV, Shard: s.cfg.Shard, T: t, BudgetW: budget}
	rep.Epoch = s.c.Epoch()
	rep.Seq = s.c.seq
	rep.Leading = true
	if s.ha != nil {
		_, rep.Leading = s.ha.Leader()
	}
	curves := s.curves[:0]
	allCurved := true
	floor := s.c.cfg.FloorW
	floorKnown := floor != 0
	for _, m := range s.c.members {
		if !m.alive {
			continue
		}
		rep.Agents++
		rep.FloorW += m.floorW
		rep.CapW += m.grantedW
		if m.scraped {
			rep.UsedW += m.gridW
		}
		// Demand: an unconstrained member wants what it draws; a
		// cap-limited one (draw pinned at its grant) hill-climbs — it
		// asks for the next curve level above its grant, not its full
		// saturation cap. The bounded over-ask keeps the global's
		// rebalance inputs static when grants are static (a member
		// parked at its floor looks cap-limited too, and jumping its
		// demand to saturation made the tier above oscillate), while a
		// genuinely saturated member keeps ratcheting up interval after
		// interval until its draw detaches from its grant.
		// The rollup applies the flat coordinator's effective-curve rule:
		// a learned curve below the confidence floor is treated as
		// curveless here too, so a half-learned member can neither steer
		// the shard's demand hill-climb nor leak extrapolated cells into
		// the trunk aggregate the global DP prices.
		curve := s.c.effectiveCurve(m)
		demand := m.gridW
		if m.granted && m.grantedW > 0 && m.gridW >= saturationFrac*m.grantedW {
			demand = m.grantedW
			if n := len(curve); n > 0 {
				demand = curve[n-1].CapW
				for _, p := range curve {
					if p.CapW > m.grantedW {
						demand = p.CapW
						break
					}
				}
			}
			if demand < m.gridW {
				demand = m.gridW
			}
		}
		rep.DemandW += demand
		if len(curve) == 0 {
			allCurved = false
			continue
		}
		curves = append(curves, curve)
		if !floorKnown {
			floor, floorKnown = m.floorW, true
		} else if s.c.cfg.FloorW == 0 && m.floorW != floor {
			// The rollup prices every member from one common floor;
			// a heterogeneous shard without an explicit Config.FloorW
			// ships no aggregate (even-share fallback above), mirroring
			// the flat coordinator's refusal to guess.
			allCurved = false
		}
	}
	if allCurved && len(curves) > 0 {
		// A read-out of the table the step's apportion just ran on: same
		// floor, same live effective curves, so unchanged curves cost a
		// comparison and nothing else — on a leader and on an observing
		// standby alike, and a promoted standby's table is already warm.
		rep.Curve = s.c.dp.Rollup(floor, curves, rollupPoints)
		s.c.tel.noteDP(s.c.dp.LastRecomputed(), false)
	}
	rep.CurveVer = s.rollup.version(rep.Curve)
	s.curves = curves
	s.mu.Lock()
	rep.Starved = s.starved
	rep.GEpoch = s.lastEpoch
	rep.GSeq = s.lastSeq
	rep.GIv = s.clk.seenIv
	s.report = rep
	s.stepped = true
	s.mu.Unlock()
}

// Report answers the global apportioner's trunk scrape with the last
// step's snapshot. The snapshot carries Leading, so a standby's answer
// tells the global to try the peer URL; it leaves out a rollup the
// global holds.
func (s *ShardCoordinator) Report(req ShardReportRequest) (ShardReport, error) {
	if err := req.Validate(); err != nil {
		return ShardReport{}, err
	}
	if req.Shard != s.cfg.Shard {
		return ShardReport{}, fmt.Errorf("ctrlplane: shard report for shard %d answered by shard %d", req.Shard, s.cfg.Shard)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The trunk scrape broadcasts the global clock even when the grant
	// deadband skips a re-grant, so the shard keeps counting intervals.
	if req.HasT {
		s.clk.observe(req.Iv, s.clk.ivS, req.T)
	}
	if !s.stepped {
		return ShardReport{}, fmt.Errorf("ctrlplane: shard %d has not completed a control interval yet", s.cfg.Shard)
	}
	rep := s.report
	rep.GIv = s.clk.seenIv
	if rep.CurveVer != 0 && rep.CurveVer == req.Held {
		rep.Curve = nil
	}
	return rep, nil
}

// ApplyBudget applies (or fences) one ShardBudget grant — the shard's
// mirror of Agent.Assign. A grant older than the newest applied
// (global epoch, seq) pair is refused with the ledger echoed, so a
// deposed global apportioner recognizes itself and a retransmitted
// duplicate of the in-force grant is acknowledged as granted.
func (s *ShardCoordinator) ApplyBudget(req ShardBudgetRequest) (ShardBudgetResponse, error) {
	if err := req.Validate(); err != nil {
		return ShardBudgetResponse{}, err
	}
	if req.Shard != s.cfg.Shard {
		return ShardBudgetResponse{}, fmt.Errorf("ctrlplane: shard budget for shard %d sent to shard %d", req.Shard, s.cfg.Shard)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := ShardBudgetResponse{V: ProtocolV, Shard: s.cfg.Shard}
	if req.Epoch < s.lastEpoch || (req.Epoch == s.lastEpoch && req.Seq <= s.lastSeq) {
		resp.Epoch, resp.Seq, resp.CapW, resp.Iv = s.lastEpoch, s.lastSeq, s.budgetW, s.clk.seenIv
		return resp, nil
	}
	s.lastEpoch, s.lastSeq = req.Epoch, req.Seq
	s.budgetW = req.CapW
	s.clk.observe(req.Iv, req.IvS, req.T)
	s.clk.grant(req.Iv, req.LeaseIv, req.IvS)
	s.starved = false
	resp.Epoch, resp.Seq, resp.Applied, resp.CapW, resp.Iv = req.Epoch, req.Seq, true, req.CapW, s.clk.seenIv
	return resp, nil
}

// ShardBinaryConfig merges the shard's trunk surface into a binary
// server config (typically one also carrying the shard's coordinator
// register/leader surface and its co-hosted agent endpoints).
func (s *ShardCoordinator) ShardBinaryConfig(cfg BinaryServerConfig) BinaryServerConfig {
	cfg.ShardReport = s.Report
	cfg.ShardBudget = s.ApplyBudget
	return cfg
}
