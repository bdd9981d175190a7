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

// HADrillOptions parameterizes the flat-fleet drill: a failover drill,
// or with one member and no kill the budget-parity replay.
type HADrillOptions struct {
	// Eval is the fleet simulation: one agent per server, behind one
	// loopback frame listener, and the budget oracle.
	Eval     *cluster.Evaluator
	Caps     []trace.Point
	Strategy ctrlplane.Strategy
	// KillStep is the 0-based cap step at which member 0, the leader,
	// dies; it must leave at least one step to observe the takeover.
	// Negative: nobody dies.
	KillStep int
	// Members is the pool size; a kill needs at least a pair. One or two
	// members share an in-memory term; three or more elect through a
	// quorum store served on loopback voter endpoints.
	Members int
}

// HADrillStep is one interval of the drill, after the fleet ticked.
type HADrillStep struct {
	T, CapW float64
	// Leader is the member that granted (-1: nobody); GrantedW sums its
	// budgets and GridW is the fleet's draw.
	Leader   int
	GrantedW float64
	GridW    float64
}

// HADrillResult is the flat drill's outcome.
type HADrillResult struct {
	// Store names the election store the pool ran on.
	Store string
	Steps []HADrillStep
	// Leaderless counts the intervals from KillStep on (from the start
	// without a kill) in which nobody granted; TakeoverStep is the first
	// one after a kill somebody did (-1: never).
	Leaderless   int
	TakeoverStep int
	// Epoch, Failovers and Leading are rank 1's view at the end (the
	// sole member's without a pair); Holdoffs is the last member's.
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
	// Violations lists every broken exit condition: a takeover later
	// than one interval or by anyone but rank 1, a leaderless interval
	// without a kill, any budget divergence, any cap violation.
	Violations []string
}

// RunHADrill replays the cap schedule through a leader-elected pool of
// coordinators sharing one fleet, kills the leader (member 0) at
// KillStep if there is one, and measures how many intervals the fleet
// spent leaderless plus budget parity on every interval somebody
// granted. Member i holds takeover rank i and runs pscoord's shipped
// timing: the default lease, MissK and term TTL. Two members granting
// in one interval is an error.
func RunHADrill(opts HADrillOptions) (*HADrillResult, error) {
	caps, members := opts.Caps, opts.Members
	if len(caps) < 2 {
		return nil, fmt.Errorf("scenario: HA drill needs at least two cap steps, got %d", len(caps))
	}
	if opts.KillStep >= len(caps)-1 {
		return nil, fmt.Errorf("scenario: kill step %d too late to observe a takeover in a %d-step trace", opts.KillStep, len(caps))
	}
	if members < 1 || opts.KillStep >= 0 && members < 2 {
		return nil, fmt.Errorf("scenario: %d members: a takeover drill needs at least a pair", members)
	}
	flt, err := ctrlplane.StartSimFleetOpts(opts.Eval, ctrlplane.FleetOptions{
		Version: "ha-drill", SharedListener: true,
	})
	if err != nil {
		return nil, err
	}
	defer flt.Close()
	interval := caps[1].T - caps[0].T

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
			Agents:    flt.Refs(),
			Strategy:  opts.Strategy,
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
			ID: fmt.Sprintf("drill-%d", i), Election: store, Clock: clock.Now, Priority: i,
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
		st := HADrillStep{T: p.T, CapW: p.V, Leader: -1}
		for i, ha := range has {
			if i == 0 && opts.KillStep >= 0 && s >= opts.KillStep {
				continue
			}
			r, err := ha.Step(ctx, p.T, p.V)
			if err != nil {
				return nil, err
			}
			if !r.Leading {
				continue
			}
			if st.Leader >= 0 {
				return nil, fmt.Errorf("step %d: members %d and %d granted in one interval", s, st.Leader, i)
			}
			st.Leader, granted[s], ledStep[s] = i, r, true
			for _, b := range r.Budgets {
				st.GrantedW += b
			}
		}
		if s >= opts.KillStep {
			if !ledStep[s] {
				res.Leaderless++
			} else if opts.KillStep >= 0 && res.TakeoverStep < 0 {
				res.TakeoverStep = s
			}
		}
		if err := flt.Tick(p.T); err != nil {
			return nil, err
		}
		if st.GridW = flt.FleetGridW(); st.GridW > p.V+1e-6 {
			res.CapViolations++
		}
		res.Steps = append(res.Steps, st)
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
	rank1 := has[min(1, members-1)]
	term, lead := rank1.Leader()
	res.Epoch, res.Leading, res.Failovers = term.Epoch, lead, rank1.Failovers()
	res.Holdoffs = has[members-1].Holdoffs()

	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	switch {
	case opts.KillStep < 0:
		if res.Leaderless > 0 {
			violate("fleet leaderless for %d intervals with nobody killed", res.Leaderless)
		}
	case res.TakeoverStep < 0:
		violate("standby never took over after the kill at step %d", opts.KillStep)
	case res.Leaderless > 1:
		violate("fleet leaderless for %d intervals, want at most one", res.Leaderless)
	case !res.Leading || res.Failovers != 1:
		violate("takeover skipped rank 1: member 1 leading=%v with %d failovers", res.Leading, res.Failovers)
	}
	if res.MaxDeltaW != 0 {
		violate("granted budgets diverged from %v by %g W over %d steps", res.Oracle, res.MaxDeltaW, res.GrantedSteps)
	}
	if res.CapViolations > 0 {
		violate("%d cap violations", res.CapViolations)
	}
	return res, nil
}
