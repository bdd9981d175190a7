package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/esd"
)

// Generation draws every parameter from one seeded stream in a fixed
// order, so a campaign is a pure function of (family, seed, size).
// The draws below deliberately stay inside the simulated machine's
// envelope: per-server caps in the 90–190 W band the cluster replays
// use, per-server demand under the lead-acid fleet's shaving reach.

// genCapDrop builds correlated cluster cap drops over a steady base.
func genCapDrop(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	base := float64(cfg.Servers) * uniform(rng, 150, 185)
	c.Caps = capSchedule(cfg, base)
	drops := 2 + rng.Intn(3)
	for d := 0; d < drops; d++ {
		at := 2 + rng.Intn(cfg.Steps-5)
		dur := 2 + rng.Intn(3)
		depth := uniform(rng, 0.40, 0.65)
		for s := at; s < at+dur && s < cfg.Steps; s++ {
			if v := base * depth; v < c.Caps[s].V {
				c.Caps[s].V = v
			}
		}
		c.Events = append(c.Events, Event{Step: at, Kind: "cap-drop", Agent: -1,
			Detail: fmt.Sprintf("cap to %.0f%% of base for %d steps", depth*100, dur)})
	}
}

// genRollingRestart builds coordinator outages mid-traffic: the leader
// vanishes for a few intervals, then returns under a bumped epoch. The
// fleet rides the gap in safe mode — hold the last grant, decay toward
// a floor — instead of cliffing to 0 W.
func genRollingRestart(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	base := float64(cfg.Servers) * uniform(rng, 150, 180)
	c.Caps = capSchedule(cfg, base)
	perShare := base / float64(cfg.Servers)
	c.SafeMode = ctrlplane.SafeModeConfig{
		HoldS:      cfg.StepS,
		DecayWPerS: uniform(rng, 0.01, 0.05),
		FloorW:     math.Min(20, perShare/2),
	}
	outages := 1 + rng.Intn(2)
	next := 3
	for o := 0; o < outages; o++ {
		room := cfg.Steps - 4 - next
		if room <= 0 {
			break
		}
		at := next + rng.Intn(room)
		dur := 2 + rng.Intn(3)
		if at+dur > cfg.Steps-2 {
			dur = cfg.Steps - 2 - at
		}
		c.Events = append(c.Events,
			Event{Step: at, Kind: "leader-down", Agent: -1,
				Detail: fmt.Sprintf("coordinator restart: silent for %d steps", dur)},
			Event{Step: at + dur, Kind: "leader-up", Agent: -1,
				Detail: "coordinator back under a bumped epoch"})
		next = at + dur + 2
	}
}

// genPartitionEmergency blackholes part of the fleet exactly while the
// cluster cap drops — re-apportioning across survivors and lease
// fencing of the partitioned agents must both hold the cap line.
func genPartitionEmergency(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	base := float64(cfg.Servers) * uniform(rng, 150, 185)
	c.Caps = capSchedule(cfg, base)
	// The emergency: a deep cap drop in the middle of the run.
	at := 4 + rng.Intn(cfg.Steps/2)
	dur := 3 + rng.Intn(3)
	depth := uniform(rng, 0.45, 0.60)
	for s := at; s < at+dur && s < cfg.Steps; s++ {
		c.Caps[s].V = base * depth
	}
	c.Events = append(c.Events, Event{Step: at, Kind: "cap-drop", Agent: -1,
		Detail: fmt.Sprintf("emergency: cap to %.0f%% of base for %d steps", depth*100, dur)})
	// The partition overlaps it: up to half the fleet goes dark one
	// step into the emergency and heals before the run ends.
	k := 1 + rng.Intn(cfg.Servers/2)
	victims := rng.Perm(cfg.Servers)[:k]
	pAt := at + 1
	pDur := dur + rng.Intn(2)
	if pAt+pDur > cfg.Steps-3 {
		pDur = cfg.Steps - 3 - pAt
	}
	for _, v := range victims {
		c.Events = append(c.Events,
			Event{Step: pAt, Kind: "partition", Agent: v,
				Detail: fmt.Sprintf("blackholed for %d steps during the emergency", pDur)},
			Event{Step: pAt + pDur, Kind: "heal", Agent: v, Detail: "partition lifted"})
	}
}

// genHierarchyShardLoss sizes a two-tier drill (treeCampaign), and
// mid-run one shard loses its leading coordinator (warm standby
// promotes) or both coordinator nodes (the global reserves its budget
// until the reclaim window passes). A surviving shard saturates afterward, so the run
// also witnesses headroom flowing across the trunk under degraded
// membership. Event steps are 0-based like every family; the drill's
// own step numbering is 1-based, hence the +1 when sizing it.
func genHierarchyShardLoss(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	tt := treeCampaign(c, rng)
	kill0 := 3 + rng.Intn(cfg.Steps/3)
	tt.KillShard = rng.Intn(tt.Shards)
	if rng.Intn(2) == 1 {
		tt.KillShardStep = kill0 + 1
	} else {
		tt.KillLeaderStep = kill0 + 1
	}
	tt.SaturateShard = (tt.KillShard + 1 + rng.Intn(tt.Shards-1)) % tt.Shards
	sat0 := kill0 + 2 + rng.Intn(3)
	if sat0 > cfg.Steps-4 {
		sat0 = cfg.Steps - 4
	}
	tt.SaturateStep = sat0 + 1
	c.Events = tt.events()
	c.TwoTier = tt
}

// treeCampaign sizes a two-tier drill for a hierarchy family: Servers
// becomes the shard count and each shard gets a drawn fleet slice,
// under a cap of 52 W per agent.
func treeCampaign(c *Campaign, rng *rand.Rand) *TwoTierOptions {
	cfg := c.Config
	agents := 6 + rng.Intn(7)
	capW := 52 * float64(cfg.Servers*agents)
	c.Caps = capSchedule(cfg, capW)
	return &TwoTierOptions{
		Shards: cfg.Servers, AgentsPerShard: agents,
		Intervals: cfg.Steps, IntervalS: cfg.StepS,
		ClusterCapW: capW, Seed: cfg.Seed,
	}
}

// genTrunkPartition sizes a two-tier drill (treeCampaign), saturates one shard and cuts another's trunk: both of the
// cut shard's coordinators keep stepping, but no budget grant reaches
// them. The global expires the shard and, once the reclaim window
// passes, hands its reserved budget to the others, so the cut shard
// must have stopped spending by then.
func genTrunkPartition(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	tt := treeCampaign(c, rng)
	tt.KillShard = rng.Intn(tt.Shards)
	tt.SaturateShard = (tt.KillShard + 1 + rng.Intn(tt.Shards-1)) % tt.Shards
	sat0 := 1 + rng.Intn(cfg.Steps/4)
	tt.SaturateStep = sat0 + 1
	tt.CutTrunkStep = sat0 + 2 + rng.Intn(cfg.Steps/4)
	c.Events = tt.events()
	c.TwoTier = tt
}

// genClockChaos builds a protocol-clock campaign: part of the fleet
// runs on fast local clocks, the coordinator stalls for several
// intervals exactly while the cluster cap collapses (leases must age
// out on the agents' own interval extrapolation, and the held budgets
// must decay on interval boundaries), and later the coordinator
// crash-restarts mid-run — the replacement has to rehydrate its
// interval counter from fleet scrapes before it may mint.
func genClockChaos(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	base := float64(cfg.Servers) * uniform(rng, 150, 180)
	c.Caps = capSchedule(cfg, base)
	perShare := base / float64(cfg.Servers)
	c.LeaseIv = 2
	c.SafeMode = ctrlplane.SafeModeConfig{
		HoldS:      cfg.StepS,
		DecayWPerS: uniform(rng, 0.01, 0.05),
		FloorW:     math.Min(20, perShare/2),
	}
	// Skewed clocks: up to half the fleet runs fast by a fixed rate —
	// under half an interval of drift per interval, so a skewed agent
	// ages leases early but never spuriously inside a healthy cadence.
	k := 1 + rng.Intn(cfg.Servers/2)
	for _, v := range rng.Perm(cfg.Servers)[:k] {
		rate := uniform(rng, 0.02, 0.10)
		c.Events = append(c.Events, Event{Step: 0, Kind: "skew", Agent: v, Value: rate,
			Detail: fmt.Sprintf("local clock runs %.1f%% fast", rate*100)})
	}
	// The stall: the coordinator goes silent past the two-interval
	// lease, and the cap drops while nobody can re-apportion it — the
	// fleet must ride on held grants decaying along interval
	// boundaries, not on wall-second guesses.
	at := 3 + rng.Intn(cfg.Steps/3)
	dur := 3 + rng.Intn(2)
	depth := uniform(rng, 0.50, 0.70)
	for s := at + 1; s < at+dur && s < cfg.Steps; s++ {
		c.Caps[s].V = base * depth
	}
	c.Events = append(c.Events,
		Event{Step: at, Kind: "clock-pause", Agent: -1,
			Detail: fmt.Sprintf("coordinator stalls for %d steps; cap drops to %.0f%% mid-stall", dur, depth*100)},
		Event{Step: at + dur, Kind: "clock-resume", Agent: -1,
			Detail: "coordinator resumes minting on its own counter"})
	// The restart: a fresh coordinator under the same epoch. It owns no
	// interval history — granting before rehydrating from a majority of
	// scrapes could re-issue interval numbers, which the duplicate-mint
	// invariant would catch.
	rAt := at + dur + 2 + rng.Intn(2)
	if rAt > cfg.Steps-3 {
		rAt = cfg.Steps - 3
	}
	c.Events = append(c.Events, Event{Step: rAt, Kind: "coord-restart", Agent: -1,
		Detail: "coordinator crash-restarts; interval counter rehydrates from fleet scrapes"})
}

// genLearningColdStart builds the online-learning campaign: a
// protocol-clock fleet joins curveless under a deliberately tight cap
// (the even split a curveless fleet starts on leaves performance on the
// table, so the learned curves have watts to move once admitted), the
// coordinator crash-restarts mid-learning, and the cap drops with the
// curves still partial. The confidence floor is drawn low enough that
// half-learned curves get admitted mid-run — the window the cap
// invariant must survive. A curve admitted early may stall below full
// coverage (probes never exceed the grant, so cells above a modest
// grant can stay unsampled); that is allowed — the invariant is about
// the cap, not about convergence.
func genLearningColdStart(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	base := float64(cfg.Servers) * uniform(rng, 95, 120)
	c.Caps = capSchedule(cfg, base)
	perShare := base / float64(cfg.Servers)
	c.LeaseIv = 2
	c.SafeMode = ctrlplane.SafeModeConfig{
		HoldS:      cfg.StepS,
		DecayWPerS: uniform(rng, 0.01, 0.05),
		FloorW:     math.Min(20, perShare/2),
	}
	c.Learn = &cf.OnlineConfig{Epsilon: uniform(rng, 0.3, 0.6), Seed: cfg.Seed}
	c.LearnConfFloor = uniform(rng, 0.2, 0.45)
	c.Events = append(c.Events, Event{Step: 0, Kind: "cold-start", Agent: -1,
		Detail: fmt.Sprintf("fleet joins curveless; epsilon %.2f probes, curves admitted at %.0f%% coverage",
			c.Learn.Epsilon, c.LearnConfFloor*100)})
	// The crash-restart lands mid-learning: the replacement coordinator
	// must rehydrate its interval counter and re-scrape the half-learned
	// curves — the fleet's estimator state lives on the agents, so the
	// restart must not reset it.
	rAt := 2 + rng.Intn(max(1, cfg.Steps/2))
	if rAt > cfg.Steps-2 {
		rAt = cfg.Steps - 2
	}
	c.Events = append(c.Events, Event{Step: rAt, Kind: "coord-restart", Agent: -1,
		Detail: "coordinator crash-restarts mid-learning; curves re-scraped after rehydration"})
	// The cap drop lands after the restart, while curves are still
	// partial: probing members self-cap at or below the shrunken grants,
	// so the tightened budget holds through the learning window.
	dAt := rAt + 1 + rng.Intn(2)
	if dAt > cfg.Steps-2 {
		dAt = cfg.Steps - 2
	}
	dur := 2 + rng.Intn(2)
	depth := uniform(rng, 0.60, 0.80)
	for s := dAt; s < dAt+dur && s < cfg.Steps; s++ {
		c.Caps[s].V = base * depth
	}
	c.Events = append(c.Events, Event{Step: dAt, Kind: "cap-drop", Agent: -1,
		Detail: fmt.Sprintf("cap to %.0f%% of base for %d steps with curves still partial", depth*100, dur)})
}

// genFlashCrowd builds demand surge waves over a battery fleet under a
// constant cap: every wave pushes fleet demand past the cap, and the
// batteries peak-shave it.
func genFlashCrowd(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	c.Caps = capSchedule(cfg, float64(cfg.Servers)*95)
	base := make([]float64, cfg.Servers)
	for i := range base {
		base[i] = uniform(rng, 65, 90)
	}
	mult := make([]float64, cfg.Steps)
	for s := range mult {
		mult[s] = 1
	}
	waves := 2 + rng.Intn(2)
	for w := 0; w < waves; w++ {
		at := 2 + rng.Intn(cfg.Steps-6)
		dur := 2 + rng.Intn(3)
		m := uniform(rng, 1.7, 2.3)
		for s := at; s < at+dur && s < cfg.Steps; s++ {
			if m > mult[s] {
				mult[s] = m
			}
		}
		c.Events = append(c.Events, Event{Step: at, Kind: "surge", Agent: -1,
			Detail: fmt.Sprintf("flash crowd: %.1fx demand for %d steps", m, dur)})
	}
	c.Demand = make([][]float64, cfg.Steps)
	for s := range c.Demand {
		row := make([]float64, cfg.Servers)
		for i := range row {
			row[i] = base[i] * mult[s] * (1 + 0.03*uniform(rng, -1, 1))
		}
		c.Demand[s] = row
	}
	spec := esd.LeadAcid(uniform(rng, 2e5, 4e5))
	c.Battery = &BatterySetup{Spec: spec, SoC0: esd.StaggeredSoC(spec, cfg.Servers)}
}

// genPriceSchedule derives the cap from an energy price curve: tight
// while expensive, generous in the valleys. The fleet banks energy
// cheap and spends it at the peaks.
func genPriceSchedule(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	hi := float64(cfg.Servers) * 110
	// Peak cap below the minimum possible fleet demand (70 W/server),
	// so every price peak forces a discharge decision.
	lo := float64(cfg.Servers) * uniform(rng, 55, 65)
	c.Caps = capSchedule(cfg, hi)
	peaks := 2
	for p := 0; p < peaks; p++ {
		at := 2 + p*cfg.Steps/2 + rng.Intn(cfg.Steps/4)
		dur := 3 + rng.Intn(3)
		for s := at; s < at+dur && s < cfg.Steps; s++ {
			c.Caps[s].V = lo
		}
		c.Events = append(c.Events, Event{Step: at, Kind: "price-peak", Agent: -1,
			Detail: fmt.Sprintf("price peak: cap %.0f W for %d steps", lo, dur)})
	}
	c.Demand = make([][]float64, cfg.Steps)
	for s := range c.Demand {
		row := make([]float64, cfg.Servers)
		for i := range row {
			row[i] = uniform(rng, 70, 95)
		}
		c.Demand[s] = row
	}
	spec := esd.LeadAcid(uniform(rng, 2.5e5, 4e5))
	c.Battery = &BatterySetup{Spec: spec, SoC0: esd.StaggeredSoC(spec, cfg.Servers)}
}

// genBatteryFleet builds a cyclic demand over a staggered-SoC fleet:
// no two servers start equally provisioned, so the richest-first
// discharge and poorest-first charge orders matter from step one.
func genBatteryFleet(c *Campaign, rng *rand.Rand) {
	cfg := c.Config
	c.Caps = capSchedule(cfg, float64(cfg.Servers)*uniform(rng, 90, 105))
	base := uniform(rng, 70, 90)
	amp := uniform(rng, 20, 35)
	period := float64(cfg.Steps) / float64(2+rng.Intn(2))
	phase := uniform(rng, 0, 2*math.Pi)
	c.Events = append(c.Events, Event{Step: 0, Kind: "demand-cycle", Agent: -1,
		Detail: fmt.Sprintf("demand %.0f±%.0f W/server over a %.0f-step period", base, amp, period)})
	c.Demand = make([][]float64, cfg.Steps)
	for s := range c.Demand {
		wave := base + amp*math.Sin(2*math.Pi*float64(s)/period+phase)
		row := make([]float64, cfg.Servers)
		for i := range row {
			d := wave * (1 + 0.04*uniform(rng, -1, 1))
			if d < 10 {
				d = 10
			}
			row[i] = d
		}
		c.Demand[s] = row
	}
	spec := esd.LiIon(uniform(rng, 1.5e5, 3e5))
	c.Battery = &BatterySetup{Spec: spec, SoC0: esd.StaggeredSoC(spec, cfg.Servers)}
}
