package scenario

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/exp"
	"powerstruggle/internal/faults"
)

// Run generates and executes the campaign a config names.
func Run(cfg Config) (*Result, error) {
	c, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	return RunCampaign(c)
}

// RunCampaign executes a generated campaign and audits every step.
func RunCampaign(c Campaign) (*Result, error) {
	if len(c.Caps) != c.Config.Steps {
		return nil, fmt.Errorf("scenario: %d cap points for %d steps", len(c.Caps), c.Config.Steps)
	}
	if c.TwoTier != nil {
		return runHier(c)
	}
	if c.HA != nil {
		return runHA(c)
	}
	if c.Config.Family.controlPlane() {
		return runCtrl(c)
	}
	return runESD(c)
}

// runHier drives a two-tier campaign through the hierarchical drill:
// per-shard coordinator pairs over loopback trunks under the global
// apportioner, with the scripted shard loss, trunk cut, saturation or
// restart the generator sized. The drill audits the cap invariants
// itself; the runner renders its per-interval outcomes as the
// canonical log. Wall time is deliberately excluded from the log —
// replay is a byte comparison.
func runHier(c Campaign) (*Result, error) {
	r := &Result{Campaign: c, LeaderlessMinCapW: math.Inf(1)}
	res, err := RunTwoTierDrill(*c.TwoTier)
	if err != nil {
		return r, err
	}
	r.TwoTier = res
	eventsAt := eventsByStep(c.Events)
	for s, iv := range res.Intervals {
		for _, ev := range eventsAt[s] {
			r.logEvent(ev)
		}
		r.logf("step=%03d t=%.0f cap=%.3f granted=%.3f reserved=%.3f rebalanced=%.3f capsum=%.3f alive=%d",
			s, iv.T, iv.CapW, iv.SumBudgetsW, iv.ReservedW, iv.RebalancedW, iv.AgentCapSumW, iv.GlobalAlive)
	}
	for _, v := range res.Violations {
		r.violatef("%s", v)
	}
	r.logf("summary steps=%d failovers=%d shardExpiries=%d reclaims=%d",
		c.Config.Steps, res.Failovers, res.Stats.ShardExpiries, res.Stats.Reclaims)
	return r, nil
}

// runCtrl drives a control-plane campaign: a real coordinator over
// loopback frames against in-process agents, with scripted blackholes
// and leader outages. Only deterministic faults are scripted, so the
// invariant log replays byte-identically.
func runCtrl(c Campaign) (*Result, error) {
	env, err := exp.NewEnv()
	if err != nil {
		return nil, err
	}
	ev, _, err := exp.Fleet(env, c.Config.Servers)
	if err != nil {
		return nil, err
	}
	flt, err := ctrlplane.StartSimFleetOpts(ev, ctrlplane.FleetOptions{
		Version:  "scenario",
		SafeMode: c.SafeMode,
		Learn:    c.Learn,
	})
	if err != nil {
		return nil, err
	}
	defer flt.Close()
	inj, err := faults.NewNetInjector(faults.NetConfig{Seed: c.Config.Seed})
	if err != nil {
		return nil, err
	}
	lease := max(c.LeaseIv, 1)
	ccfg := ctrlplane.Config{
		Agents: flt.Refs(),
		// The legacy families run on one step of lease: a partitioned
		// agent fences (or enters safe mode) within the interval after
		// its last grant. MissK is the lease, the shortest membership New
		// accepts, so expiry lands in the interval the lease lapses.
		LeaseIv:    lease,
		IntervalS:  c.Config.StepS,
		MissK:      lease,
		Retries:    1,
		RPCTimeout: 5 * time.Second,
		Transport:  inj,
		Seed:       c.Config.Seed,
	}
	if c.Learn != nil {
		// A learning fleet is apportioned by utility: learned curves
		// enter the DP once past the campaign's confidence floor, and
		// members still below it take the curveless even-share fallback.
		// A coord-restart rebuilds from this same ccfg, so the
		// replacement coordinator inherits the strategy and floor.
		ccfg.Strategy = ctrlplane.StrategyUtility
		ccfg.CurveConfFloor = c.LearnConfFloor
	}
	coord, err := ctrlplane.New(ccfg)
	if err != nil {
		return nil, err
	}
	defer func() { coord.Close() }()
	hosts := make([]string, 0, len(flt.Refs()))
	for _, ref := range flt.Refs() {
		hosts = append(hosts, strings.TrimPrefix(ref.URL, "tcp://"))
	}
	eventsAt := eventsByStep(c.Events)

	r := &Result{Campaign: c, LeaderlessMinCapW: math.Inf(1)}
	ck := ctrlChecker{learn: c.Learn != nil}
	ctx := context.Background()
	leaderDown := false
	skew := make([]float64, c.Config.Servers)
	var accExpiries, accRejoins, accRehyd int
	for s := 0; s < c.Config.Steps; s++ {
		for _, ev := range eventsAt[s] {
			r.logEvent(ev)
			switch ev.Kind {
			case "partition":
				inj.SetDown(hosts[ev.Agent], true)
			case "heal":
				inj.SetDown(hosts[ev.Agent], false)
			case "leader-down":
				leaderDown = true
			case "leader-up":
				// The restarted coordinator returns under a fresh epoch,
				// as the HA layer would after winning an election: the
				// granted ledger resets and every member is assigned
				// afresh — no lease from the old epoch is renewed.
				leaderDown = false
				coord.SetEpoch(coord.Epoch() + 1)
			case "skew":
				// The victim's local clock runs fast by this rate for
				// the rest of the run.
				skew[ev.Agent] = ev.Value
			case "clock-pause":
				// A stall, not a crash: the same coordinator resumes
				// later on its own counter, no epoch bump.
				leaderDown = true
			case "clock-resume":
				leaderDown = false
			case "coord-restart":
				// Crash-restart under the same epoch: the replacement
				// owns no interval history and must rehydrate it from
				// fleet scrapes before minting.
				st := coord.Stats()
				accExpiries += st.LeaseExpiries
				accRejoins += st.Rejoins
				accRehyd += st.Rehydrations
				coord.Close()
				if coord, err = ctrlplane.New(ccfg); err != nil {
					return r, err
				}
			}
		}
		t, capW := c.Caps[s].T, c.Caps[s].V
		led := !leaderDown
		var res ctrlplane.StepResult
		if led {
			if res, err = coord.Step(ctx, t, capW); err != nil {
				return r, err
			}
		}
		// The agents' own clocks advance regardless of the leader — the
		// daemon-side ticker is exactly what fences a stale lease when
		// the coordinator is gone. A skewed agent's clock reads ahead of
		// trace time by its rate error.
		for i, a := range flt.Agents {
			if err := a.Tick(t * (1 + skew[i])); err != nil {
				return r, err
			}
		}
		ck.check(r, s, t, capW, led, res, flt.Agents, coord.Epoch())
	}
	st := coord.Stats()
	r.LeaseExpiries, r.Rejoins = accExpiries+st.LeaseExpiries, accRejoins+st.Rejoins
	r.Rehydrations = accRehyd + st.Rehydrations
	r.FinalEpoch = coord.Epoch()
	maxSkew := 0.0
	for _, a := range flt.Agents {
		if sk := math.Abs(a.Status().ClockSkewIv); sk > maxSkew {
			maxSkew = sk
		}
	}
	r.logf("clock summary lastIv=%d rehydrations=%d maxSkewIv=%.3f",
		ck.lastIv, r.Rehydrations, maxSkew)
	if c.Learn != nil {
		unconv := 0
		minConf := 1.0
		for _, a := range flt.Agents {
			st := a.Status()
			if !st.Converged {
				unconv++
			}
			if v := st.CurveConf; v < minConf {
				minConf = v
			}
		}
		r.LearnUnconverged, r.LearnMinConfidence = unconv, minConf
		r.logf("learning summary unconverged=%d minconf=%.3f confFloor=%.2f epsilon=%.2f",
			unconv, minConf, c.LearnConfFloor, c.Learn.Epsilon)
	}
	r.logf("summary steps=%d expiries=%d rejoins=%d epoch=%d safeModeSteps=%d",
		c.Config.Steps, r.LeaseExpiries, r.Rejoins, r.FinalEpoch, r.SafeModeSteps)
	return r, nil
}

// runESD drives an ESD campaign: the cluster-scale battery planner over
// the generated demand matrix and cap schedule. Pure computation — the
// replay guarantee is structural.
func runESD(c Campaign) (*Result, error) {
	if c.Battery == nil {
		return nil, fmt.Errorf("scenario: family %s has no battery setup", c.Config.Family)
	}
	if len(c.Demand) != c.Config.Steps {
		return nil, fmt.Errorf("scenario: %d demand rows for %d steps", len(c.Demand), c.Config.Steps)
	}
	devs := make([]*esd.Device, c.Config.Servers)
	for i := range devs {
		d, err := esd.NewDevice(c.Battery.Spec, c.Battery.SoC0[i])
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	eventsAt := eventsByStep(c.Events)
	spec := c.Battery.Spec
	r := &Result{Campaign: c, LeaderlessMinCapW: math.Inf(1)}
	dt := c.Config.StepS
	for s := 0; s < c.Config.Steps; s++ {
		for _, ev := range eventsAt[s] {
			r.logEvent(ev)
		}
		capW := c.Caps[s].V
		var demand float64
		for _, w := range c.Demand[s] {
			demand += w
		}
		plan, err := esd.PlanFleet(capW, dt, devs, c.Demand[s])
		if err != nil {
			return r, err
		}
		for i := range devs {
			if plan.DischargeW[i] > 0 && plan.ChargeW[i] > 0 {
				r.violatef("step=%03d device %d both charges (%.3f W) and discharges (%.3f W)",
					s, i, plan.ChargeW[i], plan.DischargeW[i])
			}
		}
		disW, chgW := esd.ApplyFleet(plan, devs, dt)
		// The plan's bounds mirror the devices' clamps: what was planned
		// must be what moved.
		if math.Abs(disW-plan.TotalDischargeW()) > 1e-6 || math.Abs(chgW-plan.TotalChargeW()) > 1e-6 {
			r.violatef("step=%03d applied (%.3f, %.3f) W diverged from plan (%.3f, %.3f) W",
				s, disW, chgW, plan.TotalDischargeW(), plan.TotalChargeW())
		}
		// Grid draw never exceeds the cap except by the declared
		// shortfall — the unavoidable loss the planner must own up to.
		if plan.ShortfallW <= 1e-9 {
			if plan.GridW > capW+1e-6 {
				r.violatef("step=%03d grid %.3f W over cap %.3f W with no declared shortfall",
					s, plan.GridW, capW)
			}
		} else if math.Abs(plan.GridW-(capW+plan.ShortfallW)) > 1e-6 {
			r.violatef("step=%03d grid %.3f W inconsistent with cap %.3f W + shortfall %.3f W",
				s, plan.GridW, capW, plan.ShortfallW)
		}
		socMin, socMax := math.Inf(1), math.Inf(-1)
		for i, d := range devs {
			soc := d.SoC()
			if soc < spec.MinSoC-1e-9 || soc > spec.MaxSoC+1e-9 {
				r.violatef("step=%03d device %d SoC %.6f outside [%.2f, %.2f]",
					s, i, soc, spec.MinSoC, spec.MaxSoC)
			}
			socMin = math.Min(socMin, soc)
			socMax = math.Max(socMax, soc)
		}
		r.ShortfallJ += plan.ShortfallW * dt
		r.DischargedJ += disW * dt
		r.ChargedJ += chgW * dt
		r.logf("step=%03d t=%.0f cap=%.3f demand=%.3f grid=%.3f dis=%.3f chg=%.3f short=%.3f soc=[%.4f %.4f]",
			s, c.Caps[s].T, capW, demand, plan.GridW, disW, chgW, plan.ShortfallW, socMin, socMax)
	}
	r.logf("summary steps=%d dischargedJ=%.1f chargedJ=%.1f shortfallJ=%.1f",
		c.Config.Steps, r.DischargedJ, r.ChargedJ, r.ShortfallJ)
	return r, nil
}
