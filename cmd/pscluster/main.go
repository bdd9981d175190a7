// Command pscluster replays peak-shaving power caps over a fleet of
// mediated servers — the paper's Section IV-D experiment — comparing
// Equal(RAPL), Equal(Ours) and Consolidation+Migration.
//
// Usage:
//
//	pscluster -servers 10 -shave 15,30,45 -step 300
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/exp"
	"powerstruggle/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pscluster: ")
	var (
		servers   = flag.Int("servers", 10, "fleet size")
		shave     = flag.String("shave", "15,30,45", "comma-separated peak-shaving percentages")
		step      = flag.Float64("step", 300, "trace resolution in seconds")
		seed      = flag.Int64("seed", 7, "trace synthesis seed")
		days      = flag.Int("days", 1, "trace length in days (weekends dampened)")
		series    = flag.Bool("series", false, "also print the per-step cap and performance series")
		capFile   = flag.String("capfile", "", "replay a cluster cap schedule from this CSV (seconds,value) instead of synthesizing one")
		dumpTrace = flag.String("dumptrace", "", "write the synthetic demand trace to this CSV and exit")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	env, err := exp.NewEnv()
	if err != nil {
		log.Fatal(err)
	}
	if *capFile != "" {
		if err := replayCapFile(env, *capFile, *servers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *dumpTrace != "" {
		if err := dumpDemand(env, *dumpTrace, *servers, *step, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	var fracs []float64
	for _, tok := range strings.Split(*shave, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			log.Fatalf("bad shave level %q: %v", tok, err)
		}
		fracs = append(fracs, v/100)
	}
	res, err := exp.Fig12(env, exp.Fig12Config{
		Servers: *servers, ShaveFracs: fracs, StepSeconds: *step, Seed: *seed, Days: *days,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := res.Report.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *series {
		for _, lv := range res.Levels {
			fmt.Printf("series for shave %.0f%% (t, capW, perf per strategy):\n", lv.ShaveFrac*100)
			caps := res.Caps[lv.ShaveFrac]
			for i := range caps {
				if i%12 != 0 {
					continue
				}
				line := fmt.Sprintf("  t=%7.0fs cap=%7.0fW", caps[i].T, caps[i].V)
				for _, st := range exp.Fig12Strategies {
					if r := lv.Results[st]; i < len(r.PerfSeries) {
						line += fmt.Sprintf(" %s=%5.1f", abbreviate(st.String()), r.PerfSeries[i].V)
					}
				}
				fmt.Println(line)
			}
		}
	}
}

func abbreviate(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// replayCapFile evaluates every strategy against a user-supplied cap
// schedule.
func replayCapFile(env *exp.Env, path string, servers int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	caps, err := trace.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	ev, uc, err := exp.Fleet(env, servers)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %d cap steps over %d servers (uncapped fleet %.0f W)\n", len(caps), servers, uc)
	for _, s := range []cluster.Strategy{cluster.EqualRAPL, cluster.EqualOurs, cluster.ConsolidateMigrate, cluster.UtilityOurs} {
		r, err := ev.Evaluate(caps, s)
		if err != nil {
			return err
		}
		fmt.Printf("  %-32s perf %5.1f%%  efficiency %6.3f  violations %d\n",
			s, r.AvgPerfFrac*100, r.Efficiency, r.CapViolations)
	}
	return nil
}

// dumpDemand writes the synthetic demand trace as CSV.
func dumpDemand(env *exp.Env, path string, servers int, stepS float64, seed int64) error {
	_, uc, err := exp.Fleet(env, servers)
	if err != nil {
		return err
	}
	demand, err := exp.DiurnalDemand(uc, trace.Config{Seed: seed, StepSeconds: stepS})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, demand); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
