package scenario

import (
	"fmt"
	"math"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/exp"
	"powerstruggle/internal/trace"
)

// drills is the table of pinned drills: each entry is one fixed fleet
// and fault script, and the seed is its only input. A flat drill
// replays the Fig 12 day at its first shaving level; a two-tier drill
// runs the tree for a fixed number of intervals.
var drills = []struct {
	name, desc string
	servers    int             // flat drills: fleet size
	ha         HADrillOptions  // flat drills: KillStep and Members
	tree       *TwoTierOptions // two-tier drills
}{
	{name: "parity", servers: 6, ha: HADrillOptions{KillStep: -1, Members: 1},
		desc: "one coordinator over 6 networked agents; its budgets match the simulation watt for watt"},
	{name: "ha-pair", servers: 4, ha: HADrillOptions{KillStep: 6, Members: 2},
		desc: "leader of a coordinator pair killed at step 6; rank 1 leads within one interval"},
	{name: "ha-quorum", servers: 4, ha: HADrillOptions{KillStep: 6, Members: 3},
		desc: "as ha-pair, with 3 members electing through a quorum store"},
	{name: "two-tier-chaos", tree: &TwoTierOptions{Shards: 8, AgentsPerShard: 125, Intervals: 16,
		KillLeaderStep: 5, KillShardStep: 9, KillShard: 3, SaturateStep: 11, SaturateShard: 6},
		desc: "8 x 125 agents: a shard leader killed, then its whole shard, then another shard saturates"},
	{name: "two-tier-restart", tree: &TwoTierOptions{Shards: 4, AgentsPerShard: 25, Intervals: 16,
		LeaseIv: 3, RestartGlobalStep: 7},
		desc: "4 x 25 agents on 3-interval leases; the global apportioner crash-restarts mid-run"},
}

// drillShaveFrac is the flat drills' peak-shaving level: the first of
// Fig 12's three.
const drillShaveFrac = 0.15

// Drills lists the pinned drills' names in table order.
func Drills() []string {
	names := make([]string, len(drills))
	for i, d := range drills {
		names[i] = d.name
	}
	return names
}

// DrillDescription summarizes a drill for -list output.
func DrillDescription(name string) string {
	for _, d := range drills {
		if d.name == name {
			return d.desc
		}
	}
	return ""
}

// genDrill expands a pinned drill into a campaign, sized by the drill
// itself.
func genDrill(c *Campaign) error {
	cfg := &c.Config
	for _, d := range drills {
		if d.name != cfg.Drill {
			continue
		}
		if d.tree != nil {
			tt := *d.tree
			tt.Seed = cfg.Seed
			if err := tt.defaults(); err != nil {
				return err
			}
			cfg.Servers, cfg.Steps, cfg.StepS = tt.Shards, tt.Intervals, tt.IntervalS
			c.Caps = capSchedule(*cfg, tt.ClusterCapW)
			c.Events = tt.events()
			c.TwoTier = &tt
			return nil
		}
		env, err := exp.NewEnv()
		if err != nil {
			return err
		}
		ha := d.ha
		ha.Strategy = ctrlplane.StrategyUtility
		if ha.Eval, ha.Caps, err = shaveSchedule(env, d.servers, cfg.Seed, drillShaveFrac); err != nil {
			return err
		}
		cfg.Servers, cfg.Steps, cfg.StepS = d.servers, len(ha.Caps), ha.Caps[1].T-ha.Caps[0].T
		c.Caps = ha.Caps
		if ha.KillStep >= 0 {
			c.Events = []Event{{Step: ha.KillStep, Kind: "leader-down", Agent: -1,
				Detail: fmt.Sprintf("member 0 of %d, the leader, dies; rank 1 must take over", ha.Members)}}
		}
		c.HA = &ha
		return nil
	}
	return fmt.Errorf("scenario: unknown drill %q (%v)", cfg.Drill, Drills())
}

// shaveSchedule builds the flat drills' fleet and cap schedule: n
// servers under Fig 12's day (seeded, 300 s steps) shaved by frac.
func shaveSchedule(env *exp.Env, n int, seed int64, frac float64) (*cluster.Evaluator, []trace.Point, error) {
	ev, uncapped, err := exp.Fleet(env, n)
	if err != nil {
		return nil, nil, err
	}
	demand, err := exp.DiurnalDemand(uncapped, trace.Config{Seed: seed, StepSeconds: 300})
	if err != nil {
		return nil, nil, err
	}
	caps, err := trace.PeakShaveCaps(demand, frac, uncapped)
	return ev, caps, err
}

// runHA drives a flat drill and renders its intervals as the canonical
// log: the drill audits its own exit conditions.
func runHA(c Campaign) (*Result, error) {
	r := &Result{Campaign: c, LeaderlessMinCapW: math.Inf(1)}
	res, err := RunHADrill(*c.HA)
	if err != nil {
		return r, err
	}
	r.HADrill = res
	eventsAt := eventsByStep(c.Events)
	for s, st := range res.Steps {
		for _, ev := range eventsAt[s] {
			r.logEvent(ev)
		}
		r.logf("step=%03d t=%.0f cap=%.3f leader=%d granted=%.3f grid=%.3f",
			s, st.T, st.CapW, st.Leader, st.GrantedW, st.GridW)
	}
	for _, v := range res.Violations {
		r.violatef("%s", v)
	}
	r.FinalEpoch = res.Epoch
	r.logf("summary steps=%d leaderless=%d takeover=%d epoch=%d failovers=%d granted=%d maxDelta=%g capViolations=%d",
		len(res.Steps), res.Leaderless, res.TakeoverStep, res.Epoch, res.Failovers,
		res.GrantedSteps, res.MaxDeltaW, res.CapViolations)
	return r, nil
}
