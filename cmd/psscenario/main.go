// Command psscenario generates, runs, and replays seeded chaos
// campaigns against the simulated cluster: the scenario engine's CLI.
// A campaign is named by a (family, seed) pair and is fully
// deterministic — the same pair always produces the same faults, the
// same schedules, and the same invariant log, so a campaign that fails
// in CI reproduces anywhere from two integers.
//
// List the families:
//
//	psscenario -list
//
// Run one campaign and print its summary (add -v for the full log):
//
//	psscenario -family partition-emergency -seed 7
//
// Prove a campaign replays bit-identically (runs it twice and compares
// the invariant logs byte for byte):
//
//	psscenario -family rolling-restart -seed 11 -replay
//
// Run a pinned drill the same way; -seed is its only input:
//
//	psscenario -drill two-tier-chaos -seed 7 -replay
//
// The exit status is 0 only if every invariant held (and, with
// -replay, the two runs matched).
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"strings"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psscenario: ")
	var (
		list    = flag.Bool("list", false, "list campaign families and drills and exit")
		family  = flag.String("family", "", "campaign family to run (see -list)")
		drill   = flag.String("drill", "", "pinned drill to run instead of a family (see -list); takes no size flag")
		seed    = flag.Int64("seed", 1, "campaign seed; (family or drill, seed) names the campaign")
		servers = flag.Int("servers", 0, "fleet size (default 4)")
		steps   = flag.Int("steps", 0, "control intervals to run (default 24)")
		stepS   = flag.Float64("step", 0, "control interval length in trace seconds (default 300)")
		replay  = flag.Bool("replay", false, "run the campaign twice and require byte-identical invariant logs")
		verbose = flag.Bool("v", false, "print the full invariant log, not just the summary")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}
	if *list {
		for _, f := range scenario.Families() {
			fmt.Printf("%-22s %s\n", f, f.Description())
		}
		fmt.Println("drills (-drill NAME):")
		for _, d := range scenario.Drills() {
			fmt.Printf("%-22s %s\n", d, scenario.DrillDescription(d))
		}
		return
	}
	if *family == "" && *drill == "" {
		log.Fatal("no campaign: pass -family or -drill (see -list), or -list")
	}
	cfg := scenario.Config{Family: scenario.Family(*family), Drill: *drill, Seed: *seed,
		Servers: *servers, Steps: *steps, StepS: *stepS}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	name := *family + *drill

	res, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		fmt.Print(res.LogText())
	}
	log.Printf("campaign %s seed=%d: %d steps, %d events, log digest %s",
		name, *seed, len(res.Campaign.Caps), len(res.Campaign.Events), digest(res.LogText()))
	if res.SafeModeSteps > 0 {
		log.Printf("  %d steps rode a lost leader in safe mode (min leaderless fleet cap %.1f W)",
			res.SafeModeSteps, res.LeaderlessMinCapW)
	}
	if res.LeaseExpiries+res.Rejoins > 0 {
		log.Printf("  %d membership lease expiries, %d rejoins, final epoch %d",
			res.LeaseExpiries, res.Rejoins, res.FinalEpoch)
	}
	if res.Rehydrations > 0 {
		log.Printf("  %d interval-counter rehydrations (one per coordinator boot or restart)", res.Rehydrations)
	}
	if res.DischargedJ+res.ChargedJ > 0 {
		log.Printf("  fleet moved %.0f J out, %.0f J in; %.0f J shortfall",
			res.DischargedJ, res.ChargedJ, res.ShortfallJ)
	}
	if h := res.HADrill; h != nil {
		if ha := res.Campaign.HA; ha.KillStep >= 0 {
			log.Printf("  %d members on a %s, leader killed at step %d: %d leaderless interval(s); standby led from step %d under epoch %d (%d failover, %d holdoffs down-pool)",
				ha.Members, h.Store, ha.KillStep, h.Leaderless, h.TakeoverStep, h.Epoch, h.Failovers, h.Holdoffs)
		}
		log.Printf("  budget parity vs %v on %d granted steps x %d servers: max |Δ| = %g W; cap violations %d",
			h.Oracle, h.GrantedSteps, res.Campaign.Config.Servers, h.MaxDeltaW, h.CapViolations)
	}
	if tt := res.TwoTier; tt != nil {
		log.Printf("  %4s %9s %9s %9s %9s %9s %6s", "iv", "capW", "grantedW", "reservedW", "rebalW", "capsumW", "alive")
		for i, iv := range tt.Intervals {
			log.Printf("  %4d %9.1f %9.1f %9.1f %9.1f %9.1f %6d",
				i+1, iv.CapW, iv.SumBudgetsW, iv.ReservedW, iv.RebalancedW, iv.AgentCapSumW, iv.GlobalAlive)
		}
		log.Printf("  final shard budgets (W): %s", strings.Trim(fmt.Sprintf("%.1f", tt.ShardBudgetW), "[]"))
		log.Printf("  failovers %d, shard expiries %d, rejoins %d, reclaims %d, scrape failures %d, grant failures %d",
			tt.Failovers, tt.Stats.ShardExpiries, tt.Stats.ShardRejoins, tt.Stats.Reclaims,
			tt.Stats.ScrapeFailures, tt.Stats.GrantFailures)
	}

	ok := true
	if !res.Ok() {
		ok = false
		for _, v := range res.Violations {
			log.Printf("INVARIANT VIOLATED: %s", v)
		}
	}
	if *replay {
		again, err := scenario.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if again.LogText() != res.LogText() {
			ok = false
			log.Printf("REPLAY DIVERGED: second run's log digest %s != %s",
				digest(again.LogText()), digest(res.LogText()))
		} else {
			log.Printf("replay identical: %d log lines, digest %s", len(res.Log), digest(res.LogText()))
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// digest fingerprints an invariant log for terse CI output.
func digest(s string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
