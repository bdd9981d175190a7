package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/trace"
)

// HADrillOptions parameterizes the flat-fleet failover drill.
type HADrillOptions struct {
	// Eval is the fleet simulation: one agent per server, behind one
	// loopback frame listener, and the budget oracle.
	Eval     *cluster.Evaluator
	Caps     []trace.Point
	Strategy ctrlplane.Strategy
	// KillStep is the 0-based cap step at which member 0, the leader,
	// dies; it must leave at least one step to observe the takeover.
	KillStep int
	// Members is the pool size (at least 2). A pair shares an in-memory
	// term; three or more elect through a quorum store served on
	// loopback voter endpoints.
	Members int
}

// HADrillResult is the failover drill's outcome.
type HADrillResult struct {
	// Store names the election store the pool ran on.
	Store string
	// Leaderless counts the intervals from KillStep on in which nobody
	// granted; TakeoverStep is the first one somebody did (-1: never).
	Leaderless   int
	TakeoverStep int
	// Epoch, Failovers and Leading are member 1's (rank 1's) view at
	// the end; Holdoffs is the last member's.
	Epoch     uint64
	Failovers int
	Leading   bool
	Holdoffs  int
	// Oracle is the simulated strategy the granted budgets are held to;
	// MaxDeltaW is the largest |granted − oracle| over GrantedSteps.
	Oracle        cluster.Strategy
	GrantedSteps  int
	MaxDeltaW     float64
	CapViolations int
}

// RunHADrill replays the cap schedule through a leader-elected pool of
// coordinators sharing one fleet, kills the leader (member 0) at
// KillStep, and measures how many intervals the fleet spent leaderless
// plus budget parity on every interval somebody granted. Member i holds
// takeover rank i. Two members granting in one interval is an error.
func RunHADrill(opts HADrillOptions) (*HADrillResult, error) {
	caps, members := opts.Caps, opts.Members
	if opts.KillStep >= len(caps)-1 {
		return nil, fmt.Errorf("-ha-kill-step %d too late to observe a takeover in a %d-step trace", opts.KillStep, len(caps))
	}
	if members < 2 {
		return nil, fmt.Errorf("-ha-members %d: a takeover drill needs at least a pair", members)
	}
	flt, err := ctrlplane.StartSimFleetOpts(opts.Eval, ctrlplane.FleetOptions{
		Version: "ha-drill", SharedListener: true,
	})
	if err != nil {
		return nil, err
	}
	defer flt.Close()
	interval := caps[1].T - caps[0].T
	ttl := time.Duration(1.5 * interval * float64(time.Second))

	res := &HADrillResult{Store: "shared-memory term", TakeoverStep: -1}
	var pool *ctrlplane.VoterPool
	if members >= 3 {
		if pool, err = ctrlplane.StartVoterPool(members, nil); err != nil {
			return nil, err
		}
		defer pool.Close()
		res.Store = fmt.Sprintf("%d-voter quorum store (majority %d)", members, members/2+1)
	}
	shared := ctrlplane.NewMemElection()
	clock := &drillClock{}
	has := make([]*ctrlplane.HA, members)
	for i := range has {
		c, err := ctrlplane.New(ctrlplane.Config{
			Agents:   flt.Refs(),
			Strategy: opts.Strategy,
			// Exactly one interval: whatever grant a dead leader left
			// behind lapses before the next interval's cap could shrink
			// under it, so the blackout is fenced, not over-budget.
			LeaseIv:   1,
			IntervalS: interval,
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		var store ctrlplane.Election = shared
		if pool != nil {
			q, err := ctrlplane.NewQuorumElection(ctrlplane.QuorumConfig{Voters: pool.URLs()})
			if err != nil {
				return nil, err
			}
			defer q.Close()
			store = q
		}
		has[i], err = ctrlplane.NewHA(c, ctrlplane.HAConfig{
			ID: fmt.Sprintf("drill-%d", i), Election: store, TermTTL: ttl,
			Clock: clock.Now, Priority: i,
		})
		if err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	granted := make([]ctrlplane.StepResult, len(caps))
	ledStep := make([]bool, len(caps))
	for s, p := range caps {
		clock.Set(time.Duration(p.T * float64(time.Second)))
		leaders := 0
		for i, ha := range has {
			if i == 0 && s >= opts.KillStep {
				continue
			}
			r, err := ha.Step(ctx, p.T, p.V)
			if err != nil {
				return nil, err
			}
			if r.Leading {
				leaders++
				granted[s], ledStep[s] = r, true
			}
		}
		if leaders > 1 {
			return nil, fmt.Errorf("step %d: %d members granted in one interval", s, leaders)
		}
		if s >= opts.KillStep {
			if !ledStep[s] {
				res.Leaderless++
			} else if res.TakeoverStep < 0 {
				res.TakeoverStep = s
			}
		}
		if err := flt.Tick(p.T); err != nil {
			return nil, err
		}
		if flt.FleetGridW() > p.V+1e-6 {
			res.CapViolations++
		}
	}

	res.Oracle = cluster.EqualOurs
	if opts.Strategy == ctrlplane.StrategyUtility {
		res.Oracle = cluster.UtilityOurs
	}
	oracle, err := opts.Eval.Evaluate(caps, res.Oracle)
	if err != nil {
		return nil, err
	}
	for s := range caps {
		if !ledStep[s] {
			continue
		}
		res.GrantedSteps++
		for j, b := range granted[s].Budgets {
			res.MaxDeltaW = math.Max(res.MaxDeltaW, math.Abs(b-oracle.BudgetSeries[s][j]))
		}
	}
	term, lead := has[1].Leader()
	res.Epoch, res.Leading, res.Failovers = term.Epoch, lead, has[1].Failovers()
	res.Holdoffs = has[members-1].Holdoffs()
	return res, nil
}
