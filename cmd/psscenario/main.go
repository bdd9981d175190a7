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
// The exit status is 0 only if every invariant held (and, with
// -replay, the two runs matched).
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("psscenario: ")
	var (
		list    = flag.Bool("list", false, "list campaign families and exit")
		family  = flag.String("family", "", "campaign family to run (see -list)")
		seed    = flag.Int64("seed", 1, "campaign seed; (family, seed) names the campaign")
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
		return
	}
	if *family == "" {
		log.Fatal("no campaign: pass -family (see -list) or -list")
	}
	fam, err := scenario.ParseFamily(*family)
	if err != nil {
		log.Fatal(err)
	}
	cfg := scenario.Config{Family: fam, Seed: *seed, Servers: *servers, Steps: *steps, StepS: *stepS}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		fmt.Print(res.LogText())
	}
	log.Printf("campaign %s seed=%d: %d steps, %d events, log digest %s",
		fam, *seed, len(res.Campaign.Caps), len(res.Campaign.Events), digest(res.LogText()))
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
