// Package scenario is the seeded chaos campaign engine: it composes
// the trace replayer, the cluster ESD scheduler, the fault injectors,
// and the networked control plane into named, replayable campaigns.
// Every campaign is generated from a (family, seed) pair by a single
// deterministic stream, and every run emits a canonical invariant log —
// so "replay bit-identically" is a byte comparison, and a failure seen
// in CI reproduces on a laptop from two integers.
//
// Families split along the two subsystems they stress:
//
//   - Control-plane families (cap-drop, rolling-restart,
//     partition-emergency) drive a real coordinator over loopback
//     binary frames against in-process agents, with scripted blackholes
//     and leader outages. Faults are scripted — deterministic SetDown
//     windows and epoch bumps — never probabilistic, because dice
//     rolled under concurrent fan-out are consumed in scheduler order
//     and would break replay.
//
//   - ESD families (flash-crowd, price-schedule, battery-fleet) drive
//     the cluster-scale battery planner (the paper's Fig. 12 extended
//     from one server to a rack) through demand waves, price-driven cap
//     schedules, and staggered state-of-charge fleets. The planner is a
//     pure function, so these replay trivially.
//
// The budget-tree families (hierarchy-shard-loss, trunk-partition) run
// the two-tier drill harness (RunTwoTierDrill). Pinned drills (Drills)
// are campaigns too: each name fixes a fleet and a fault script, and
// the seed is its only input.
//
// Invariants checked every step: the cluster cap is never exceeded
// (with one lease of grace after a cap change, and a leaderless fleet
// held to the last granted cap), state of charge stays inside every
// device's usable window, and no lease is honored across leadership
// epochs.
package scenario

import (
	"fmt"
	"math/rand"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/trace"
)

// Family names one campaign shape.
type Family string

const (
	// FamilyCapDrop replays correlated cluster cap drops — the grid
	// emergency where the whole rack's budget collapses at once.
	FamilyCapDrop Family = "cap-drop"
	// FamilyFlashCrowd replays demand surge waves over a battery fleet
	// under a constant cap: the batteries peak-shave the crowd.
	FamilyFlashCrowd Family = "flash-crowd"
	// FamilyPriceSchedule replays a price-driven cap schedule: the cap
	// tightens when energy is expensive, and the fleet banks energy in
	// the cheap valleys to spend at the peaks.
	FamilyPriceSchedule Family = "price-schedule"
	// FamilyBatteryFleet replays a cyclic demand over a fleet whose
	// batteries start at staggered states of charge, so the discharge
	// order matters from the first interval.
	FamilyBatteryFleet Family = "battery-fleet"
	// FamilyRollingRestart kills the coordinator mid-traffic for a few
	// intervals and brings it back under a bumped epoch; agents ride
	// the outage in safe mode instead of fencing to zero.
	FamilyRollingRestart Family = "rolling-restart"
	// FamilyPartitionEmergency blackholes part of the fleet exactly
	// while the cluster cap drops — the compound failure where
	// re-apportioning and lease fencing must both hold the line.
	FamilyPartitionEmergency Family = "partition-emergency"
	// FamilyHierarchyShardLoss drives the two-tier budget tree through
	// a shard-coordinator loss — a leader kill with a warm standby, or
	// a whole shard going dark — while another shard saturates. The
	// invariant: the cluster cap is never exceeded, not even during the
	// failover or the dead shard's reservation window.
	FamilyHierarchyShardLoss Family = "hierarchy-shard-loss"
	// FamilyTrunkPartition cuts one shard's trunk while both of its
	// coordinators live, after another shard saturates. The invariant:
	// the cut shard stops spending before the global hands its budget
	// to the others.
	FamilyTrunkPartition Family = "trunk-partition"
	// FamilyClockChaos drives a protocol-clock fleet through clock
	// trouble: agents whose local clocks run fast, a coordinator stall
	// spanning a cap emergency (leases age out on the agents' own
	// interval extrapolation), and a coordinator crash-restart that
	// must rehydrate its interval counter from fleet scrapes instead of
	// re-issuing interval numbers.
	FamilyClockChaos Family = "clock-chaos"
	// FamilyLearningColdStart boots a fleet that joins curveless and
	// characterizes its cap→utility curves online: epsilon-greedy probes
	// under live grants, learned curves admitted to the utility DP once
	// past a confidence floor, a coordinator crash-restart mid-learning,
	// and a cap drop with the curves still partial. The invariant: the
	// cluster cap is never exceeded while the curves are partial —
	// probes self-cap at or below grants, so a learning fleet can only
	// undershoot its budget, never overshoot it.
	FamilyLearningColdStart Family = "learning-cold-start"
)

// Description summarizes what the family stresses, for -list output
// and docs.
func (f Family) Description() string {
	switch f {
	case FamilyCapDrop:
		return "correlated cluster cap drops over the networked control plane"
	case FamilyFlashCrowd:
		return "demand surge waves peak-shaved by the battery fleet"
	case FamilyPriceSchedule:
		return "price-driven cap schedule: bank cheap energy, spend it at the peaks"
	case FamilyBatteryFleet:
		return "cyclic demand over a staggered-SoC battery fleet"
	case FamilyRollingRestart:
		return "coordinator restarts mid-traffic; agents ride the gap in safe mode"
	case FamilyPartitionEmergency:
		return "network partition during a cap emergency; fencing holds the line"
	case FamilyHierarchyShardLoss:
		return "two-tier budget tree loses a shard coordinator; the cap holds through failover"
	case FamilyTrunkPartition:
		return "two-tier budget tree loses a live shard's trunk; the starved shard stops spending"
	case FamilyClockChaos:
		return "skewed agent clocks, a coordinator stall, and a crash-restart under protocol-clock leases"
	case FamilyLearningColdStart:
		return "fleet joins curveless and learns its utility curves online; the cap holds while curves are partial"
	default:
		return ""
	}
}

// Families lists every campaign family in canonical order.
func Families() []Family {
	return []Family{
		FamilyCapDrop, FamilyFlashCrowd, FamilyPriceSchedule,
		FamilyBatteryFleet, FamilyRollingRestart, FamilyPartitionEmergency,
		FamilyHierarchyShardLoss, FamilyClockChaos, FamilyLearningColdStart,
		FamilyTrunkPartition,
	}
}

// ParseFamily maps a CLI name to a family.
func ParseFamily(name string) (Family, error) {
	for _, f := range Families() {
		if string(f) == name {
			return f, nil
		}
	}
	return "", fmt.Errorf("scenario: unknown family %q (%v)", name, Families())
}

// controlPlane reports whether the family drives the networked control
// plane (as opposed to the pure ESD fleet planner).
func (f Family) controlPlane() bool {
	switch f {
	case FamilyCapDrop, FamilyRollingRestart, FamilyPartitionEmergency,
		FamilyClockChaos, FamilyLearningColdStart:
		return true
	}
	return false
}

// Config selects and sizes one campaign. The zero values of Servers,
// Steps, and StepS take the defaults (4 servers, 24 steps of 300 s).
type Config struct {
	Family Family
	// Drill names a pinned drill (see Drills) instead of a family. A
	// drill fixes its own size, so Servers, Steps and StepS stay zero.
	Drill   string
	Seed    int64
	Servers int
	Steps   int
	StepS   float64
}

// withDefaults normalizes the config.
func (c Config) withDefaults() Config {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.Steps == 0 {
		c.Steps = 24
	}
	if c.StepS == 0 {
		c.StepS = 300
	}
	return c
}

// Validate reports whether the config is runnable.
func (c Config) Validate() error {
	if c.Drill != "" {
		if c.Family != "" || c.Servers != 0 || c.Steps != 0 || c.StepS != 0 {
			return fmt.Errorf("scenario: drill %q takes no family and no size", c.Drill)
		}
		if DrillDescription(c.Drill) == "" {
			return fmt.Errorf("scenario: unknown drill %q (%v)", c.Drill, Drills())
		}
		return nil
	}
	if _, err := ParseFamily(string(c.Family)); err != nil {
		return err
	}
	c = c.withDefaults()
	if c.Servers < 2 || c.Servers > 64 {
		return fmt.Errorf("scenario: %d servers (want 2..64)", c.Servers)
	}
	if c.Steps < 4 || c.Steps > 10000 {
		return fmt.Errorf("scenario: %d steps (want 4..10000)", c.Steps)
	}
	if c.StepS <= 0 {
		return fmt.Errorf("scenario: step %g s", c.StepS)
	}
	return nil
}

// Event is one scripted fault in a campaign, pinned to a step index.
type Event struct {
	// Step is the control interval the event fires at (applied before
	// the interval runs).
	Step int
	// Kind is one of partition, heal, leader-down, leader-up (the
	// kinds the runner acts on), or an informational marker such as
	// cap-drop, surge, or price-peak whose effect is already baked
	// into the cap/demand schedules.
	Kind string
	// Agent is the target fleet index, or -1 for a cluster-wide event.
	Agent int
	// Value carries the event's numeric parameter — a skew event's
	// clock-rate error, for example. Zero for events that need none.
	Value float64
	// Detail is a human-readable note, stable across runs.
	Detail string
}

// BatterySetup equips an ESD campaign's fleet.
type BatterySetup struct {
	Spec esd.Spec
	// SoC0 is each server's initial state of charge.
	SoC0 []float64
}

// Campaign is one fully generated, replayable scenario: everything the
// runner consumes is here, and all of it is a pure function of the
// (family, seed, size) tuple.
type Campaign struct {
	Config Config
	// Caps is the cluster cap schedule, one point per step.
	Caps []trace.Point
	// Demand is per-step per-server unassisted grid demand (ESD
	// families only; nil for control-plane families, whose demand comes
	// from the cluster evaluator's workload mixes).
	Demand [][]float64
	// Events are the scripted faults in step order.
	Events []Event
	// Battery equips the fleet (ESD families only).
	Battery *BatterySetup
	// SafeMode configures leaderless degradation for the fleet's agents
	// (zero: agents fence to 0 W on lease lapse).
	SafeMode ctrlplane.SafeModeConfig
	// LeaseIv is the draw lease in coordinator intervals, aged at StepS
	// per interval. Zero means one interval: a partitioned agent fences
	// (or enters safe mode) within the interval after its last grant.
	LeaseIv int
	// Learn, when non-nil, boots every fleet member curveless: agents
	// characterize their cap→utility curves online from this config
	// (the fleet harness derives per-agent seeds, Seed + server index),
	// and the coordinator apportions by utility with learned curves
	// gated on LearnConfFloor. Learning campaigns only.
	Learn *cf.OnlineConfig
	// LearnConfFloor is the coordinator's confidence floor for learned
	// curves: a member reporting coverage below it takes the curveless
	// even-share fallback instead of entering the utility DP.
	LearnConfFloor float64
	// TwoTier sizes the hierarchical drill (hierarchy families and
	// two-tier drills only).
	TwoTier *TwoTierOptions
	// HA sets up the flat failover or parity drill (flat drills only).
	HA *HADrillOptions
}

// Generate expands a config into a campaign. Same config, same
// campaign — the generator consumes a single seeded stream in a fixed
// order and never touches the wall clock.
func Generate(cfg Config) (Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return Campaign{}, err
	}
	if cfg.Drill != "" {
		c := Campaign{Config: cfg}
		return c, genDrill(&c)
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := Campaign{Config: cfg}
	switch cfg.Family {
	case FamilyCapDrop:
		genCapDrop(&c, rng)
	case FamilyFlashCrowd:
		genFlashCrowd(&c, rng)
	case FamilyPriceSchedule:
		genPriceSchedule(&c, rng)
	case FamilyBatteryFleet:
		genBatteryFleet(&c, rng)
	case FamilyRollingRestart:
		genRollingRestart(&c, rng)
	case FamilyPartitionEmergency:
		genPartitionEmergency(&c, rng)
	case FamilyHierarchyShardLoss:
		genHierarchyShardLoss(&c, rng)
	case FamilyTrunkPartition:
		genTrunkPartition(&c, rng)
	case FamilyClockChaos:
		genClockChaos(&c, rng)
	case FamilyLearningColdStart:
		genLearningColdStart(&c, rng)
	default:
		return Campaign{}, fmt.Errorf("scenario: unknown family %q", cfg.Family)
	}
	return c, nil
}

// uniform draws from [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + rng.Float64()*(hi-lo)
}

// capSchedule builds a flat schedule at baseW, one point per step.
func capSchedule(cfg Config, baseW float64) []trace.Point {
	pts := make([]trace.Point, cfg.Steps)
	for i := range pts {
		pts[i] = trace.Point{T: float64(i) * cfg.StepS, V: baseW}
	}
	return pts
}
