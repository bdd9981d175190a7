package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// Generation is a pure function of (family, seed, size): same inputs,
// same campaign; a different seed, a different campaign.
func TestGenerateDeterministic(t *testing.T) {
	for _, f := range Families() {
		f := f
		t.Run(string(f), func(t *testing.T) {
			a, err := Generate(Config{Family: f, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(Config{Family: f, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same (family, seed) generated different campaigns")
			}
			c, err := Generate(Config{Family: f, Seed: 43})
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds generated identical campaigns")
			}
			if len(a.Events) == 0 {
				t.Fatal("campaign has no scripted events")
			}
		})
	}
}

// mustRun executes a campaign and fails the test on any invariant
// violation.
func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.FailNow()
	}
	return r
}

// Correlated cap drops: the networked fleet re-caps inside one lease of
// every drop and the summed enforced caps never exceed the allowance.
func TestCampaignCapDrop(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyCapDrop, Seed: 7})
	base := r.Campaign.Caps[0].V
	minCap := base
	for _, p := range r.Campaign.Caps {
		minCap = math.Min(minCap, p.V)
	}
	if minCap >= base {
		t.Fatalf("no drop generated: min cap %.1f of base %.1f", minCap, base)
	}
	if r.FinalEpoch != 1 {
		t.Fatalf("epoch moved to %d without any leader change", r.FinalEpoch)
	}
}

// Flash crowd: surge waves push demand past the cap and the battery
// fleet peak-shaves them; valleys recharge it.
func TestCampaignFlashCrowd(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyFlashCrowd, Seed: 7})
	if r.DischargedJ <= 0 {
		t.Fatal("no discharge: the waves never stressed the cap")
	}
	if r.ChargedJ <= 0 {
		t.Fatal("no charge: the valleys never banked energy")
	}
}

// Price-driven cap schedule: the fleet banks energy in cheap valleys
// and spends it under the tight peak caps.
func TestCampaignPriceSchedule(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyPriceSchedule, Seed: 7})
	if r.DischargedJ <= 0 || r.ChargedJ <= 0 {
		t.Fatalf("no duty cycle: discharged %.0f J, charged %.0f J", r.DischargedJ, r.ChargedJ)
	}
}

// Battery fleet with staggered SoC: the planner's richest-first /
// poorest-first ordering runs against a fleet where it matters from
// step one, and no device ever leaves its usable window.
func TestCampaignBatteryFleet(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyBatteryFleet, Seed: 7})
	soc := r.Campaign.Battery.SoC0
	for i := 1; i < len(soc); i++ {
		if soc[i] <= soc[i-1] {
			t.Fatalf("SoC not staggered: %v", soc)
		}
	}
	if r.DischargedJ+r.ChargedJ <= 0 {
		t.Fatal("fleet never moved any energy")
	}
}

// Rolling coordinator restarts mid-traffic: the fleet rides every
// leader outage in safe mode — holding the last granted caps instead of
// cliffing to 0 W — without ever exceeding the cluster cap, and the
// returning leader's bumped epoch re-grants everything afresh.
func TestCampaignRollingRestart(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyRollingRestart, Seed: 11})
	if r.SafeModeSteps == 0 {
		t.Fatal("no step rode the outage in safe mode")
	}
	if r.FinalEpoch < 2 {
		t.Fatalf("final epoch %d: the leader never restarted", r.FinalEpoch)
	}
	if math.IsInf(r.LeaderlessMinCapW, 1) {
		t.Fatal("never observed a leaderless interval")
	}
	// The survival demonstration: leaderless, the fleet held real
	// budgets (at worst the decay floors), not the 0 W cliff.
	floorSum := float64(r.Campaign.Config.Servers) * r.Campaign.SafeMode.FloorW
	if r.LeaderlessMinCapW < floorSum-1e-6 {
		t.Fatalf("leaderless fleet cap sum fell to %.1f W, below the %.1f W floor sum",
			r.LeaderlessMinCapW, floorSum)
	}
}

// Partition during a cap emergency: the blackholed agents fence, the
// survivors absorb the re-apportioned emergency cap, and the healed
// agents rejoin — with the cluster cap honored throughout.
func TestCampaignPartitionEmergency(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyPartitionEmergency, Seed: 7})
	if r.LeaseExpiries == 0 {
		t.Fatal("no membership lease expired despite the partition")
	}
	if r.Rejoins == 0 {
		t.Fatal("no agent rejoined after the heal")
	}
}

// Two-tier shard loss: the budget tree rides a shard-coordinator
// death — warm standby promotion or a whole-shard reservation — with
// the cluster cap invariant held every interval, and headroom still
// flows to the saturating survivor over the trunk.
func TestCampaignHierarchyShardLoss(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyHierarchyShardLoss, Seed: 7})
	if r.Failovers == 0 && r.ShardExpiries == 0 {
		t.Fatal("the scripted shard loss left no failover and no expiry")
	}
	if r.ShardExpiries > 0 && r.ShardReclaims == 0 {
		t.Fatal("dead shard expired but its reserved budget was never reclaimed")
	}
	tt := r.Campaign.TwoTier
	if tt == nil {
		t.Fatal("campaign carries no two-tier setup")
	}
	if tt.KillLeaderStep == 0 && tt.KillShardStep == 0 {
		t.Fatal("no shard loss was scripted")
	}
}

// Clock chaos: skewed agent clocks, a coordinator stall across a cap
// emergency, and a crash-restart — all under two-interval leases.
// The stall must put the fleet through interval-aged safe mode, the
// restarted coordinator must rehydrate its counter from fleet scrapes
// (the duplicate-mint invariant runs every leading step), and the run
// must end with everyone re-granted under the original epoch.
func TestCampaignClockChaos(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyClockChaos, Seed: 7})
	if r.Campaign.LeaseIv < 2 {
		t.Fatalf("campaign runs on a %d-interval lease, want one that outlives a single missed grant", r.Campaign.LeaseIv)
	}
	if r.SafeModeSteps == 0 {
		t.Fatal("no step rode the stall in safe mode")
	}
	if math.IsInf(r.LeaderlessMinCapW, 1) {
		t.Fatal("never observed a leaderless interval")
	}
	floorSum := float64(r.Campaign.Config.Servers) * r.Campaign.SafeMode.FloorW
	if r.LeaderlessMinCapW < floorSum-1e-6 {
		t.Fatalf("stalled fleet cap sum fell to %.1f W, below the %.1f W floor sum",
			r.LeaderlessMinCapW, floorSum)
	}
	if r.Rehydrations == 0 {
		t.Fatal("the scripted crash-restart never rehydrated the interval counter")
	}
	if r.FinalEpoch != 1 {
		t.Fatalf("final epoch %d: a stall and a same-epoch restart must not elect anyone", r.FinalEpoch)
	}
	skewed := false
	for _, ev := range r.Campaign.Events {
		if ev.Kind == "skew" {
			skewed = true
			if ev.Value <= 0 || ev.Value >= 0.5 {
				t.Fatalf("skew rate %g outside the scripted band", ev.Value)
			}
		}
	}
	if !skewed {
		t.Fatal("no agent clock was skewed")
	}
}

// Learning cold start: the fleet joins curveless, learns its utility
// curves online under live grants, and rides a coordinator
// crash-restart plus a cap drop with the curves still partial. The
// headline invariant — the cluster cap is never exceeded while curves
// are partial — is checked every step by the runner (probes self-cap
// at or below grants); this test asserts the campaign actually
// exercised that window.
func TestCampaignLearningColdStart(t *testing.T) {
	r := mustRun(t, Config{Family: FamilyLearningColdStart, Seed: 7})
	if r.Campaign.Learn == nil {
		t.Fatal("campaign carries no learning config")
	}
	if r.Campaign.LeaseIv < 2 {
		t.Fatalf("campaign runs on a %d-interval lease, want one that outlives a single missed grant", r.Campaign.LeaseIv)
	}
	if f := r.Campaign.LearnConfFloor; f <= 0 || f >= 1 {
		t.Fatalf("confidence floor %.3f outside the partial-admission band", f)
	}
	if r.LearnMinConfidence <= 0 {
		t.Fatalf("fleet never observed a sample: min coverage %.3f", r.LearnMinConfidence)
	}
	if r.LearnUnconverged == 0 {
		t.Fatal("every curve converged: the run never witnessed the partial-curve window")
	}
	if r.Rehydrations == 0 {
		t.Fatal("the scripted crash-restart never rehydrated the interval counter")
	}
	if r.FinalEpoch != 1 {
		t.Fatalf("final epoch %d: a same-epoch restart must not elect anyone", r.FinalEpoch)
	}
	kinds := map[string]bool{}
	for _, ev := range r.Campaign.Events {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"cold-start", "coord-restart", "cap-drop"} {
		if !kinds[k] {
			t.Fatalf("campaign scripted no %s event", k)
		}
	}
}

// The replay guarantee: running the same campaign twice produces the
// same invariant log, byte for byte — including the control-plane
// families, whose faults are scripted rather than rolled.
func TestReplayDeterminism(t *testing.T) {
	for _, cfg := range []Config{
		{Family: FamilyPartitionEmergency, Seed: 7},
		{Family: FamilyRollingRestart, Seed: 11},
		{Family: FamilyFlashCrowd, Seed: 7},
		{Family: FamilyHierarchyShardLoss, Seed: 7},
		{Family: FamilyClockChaos, Seed: 7},
		{Family: FamilyLearningColdStart, Seed: 7},
	} {
		cfg := cfg
		t.Run(string(cfg.Family), func(t *testing.T) {
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.LogText() != b.LogText() {
				t.Fatalf("replay diverged:\nfirst run:\n%s\nsecond run:\n%s",
					diffHead(a.LogText(), b.LogText()), "")
			}
		})
	}
}

// diffHead returns the first differing line pair, for readable failures.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "logs differ in length"
}
