// Command pscluster replays peak-shaving power caps over a fleet of
// mediated servers — the paper's Section IV-D experiment — comparing
// Equal(RAPL), Equal(Ours) and Consolidation+Migration.
//
// Usage:
//
//	pscluster -servers 10 -shave 15,30,45 -step 300
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/exp"
	"powerstruggle/internal/scenario"
	"powerstruggle/internal/trace"
	"powerstruggle/internal/workload"
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
		agents    = flag.Bool("agents", false, "replay through the networked control plane (in-process agents over loopback) and check budget parity against the pure simulation")
		strategy  = flag.String("strategy", "utility", "apportioning strategy in -agents mode: equal or utility")
		haKill    = flag.Int("ha-kill-step", -1, "in -agents mode, replay through a leader-elected coordinator pool and kill the leader at this step; reports failover latency and post-recovery budget parity")
		haMembers = flag.Int("ha-members", 2, "pool size for the -ha-kill-step drill; 3 or more members elect through an in-process quorum store (loopback voter endpoints) instead of the shared-memory term")

		shards      = flag.Int("shards", 0, "run the two-tier hierarchy drill over this many shard coordinators (HA pairs under one global apportioner); 0 disables")
		shardAgents = flag.Int("shard-agents", 125, "agents per shard in the -shards drill")
		intervals   = flag.Int("intervals", 16, "control intervals in the -shards drill")
		clusterCap  = flag.Float64("cluster-cap", 0, "cluster cap in watts for the -shards drill (0: 52 W per agent, between idle floor and nameplate)")
		killLeader  = flag.Int("kill-leader-step", 0, "in the -shards drill, crash -kill-shard's leading coordinator at this 1-based interval (0: never); the warm standby promotes")
		killWhole   = flag.Int("kill-shard-step", 0, "in the -shards drill, crash BOTH coordinator nodes of -kill-shard at this 1-based interval (0: never); the global reserves its budget until reclaim")
		killShard   = flag.Int("kill-shard", 0, "shard index the kill steps target")
		satStep     = flag.Int("saturate-step", 0, "in the -shards drill, raise -saturate-shard's demand to nameplate at this 1-based interval (0: never); headroom must flow to it")
		satShard    = flag.Int("saturate-shard", 0, "shard index the saturation targets")
		leaseIv     = flag.Int("lease-iv", 2, "in the -shards drill, the draw lease in control intervals: shard coordinators grant this many own-interval agent leases and the global grants one interval longer to the shards")
		restartG    = flag.Int("restart-global-step", 0, "in the -shards drill, crash-restart the global apportioner at this 1-based interval (0: never); with -lease-iv the replacement rehydrates its interval counter from shard scrapes and the drill flags any duplicate interval number")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	if *shards > 0 {
		err := runTwoTier(scenario.TwoTierOptions{
			Shards:            *shards,
			AgentsPerShard:    *shardAgents,
			Intervals:         *intervals,
			IntervalS:         *step,
			ClusterCapW:       *clusterCap,
			Seed:              *seed,
			KillLeaderStep:    *killLeader,
			KillShardStep:     *killWhole,
			KillShard:         *killShard,
			SaturateStep:      *satStep,
			SaturateShard:     *satShard,
			LeaseIv:           *leaseIv,
			RestartGlobalStep: *restartG,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	if *agents {
		if err := runAgents(*servers, *strategy, *capFile, *shave, *step, *seed, *haKill, *haMembers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *haKill >= 0 {
		log.Fatal("-ha-kill-step needs -agents (the drill runs over the networked control plane)")
	}
	if *capFile != "" {
		if err := replayCapFile(*capFile, *servers); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *dumpTrace != "" {
		if err := dumpDemand(*dumpTrace, *servers, *step, *seed); err != nil {
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
	env, err := exp.NewEnv()
	if err != nil {
		log.Fatal(err)
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
				for _, r := range lv.Results {
					if i < len(r.PerfSeries) {
						line += fmt.Sprintf(" %s=%5.1f", abbreviate(r.Strategy.String()), r.PerfSeries[i].V)
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

// fleet builds the default evaluator over the first N mixes.
func fleet(servers int) (*cluster.Evaluator, float64, error) {
	env, err := exp.NewEnv()
	if err != nil {
		return nil, 0, err
	}
	mixes := workload.Mixes()
	assign := make([]workload.Mix, servers)
	for i := range assign {
		assign[i] = mixes[i%len(mixes)]
	}
	ev, err := cluster.NewEvaluator(cluster.Config{HW: env.HW, Library: env.Lib, Mixes: assign})
	if err != nil {
		return nil, 0, err
	}
	uc, err := ev.UncappedClusterW()
	if err != nil {
		return nil, 0, err
	}
	return ev, uc, nil
}

// replayCapFile evaluates every strategy against a user-supplied cap
// schedule.
func replayCapFile(path string, servers int) error {
	caps, err := readCaps(path)
	if err != nil {
		return err
	}
	ev, uc, err := fleet(servers)
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

// runAgents replays a cap schedule through the networked control plane
// — a pscoord-style coordinator fanning leased budgets out to one
// in-process agent per server behind one loopback frame listener (so
// the fan-out rides batch frames) — and checks that the
// resulting budget sequence matches the pure simulation watt for watt.
// With killStep >= 0 the replay runs through a leader-elected
// coordinator pair instead, killing the leader mid-trace.
func runAgents(servers int, strategyName, capFile string, shavePcts string, stepS float64, seed int64, killStep, members int) error {
	strat, err := ctrlplane.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	ev, uc, err := fleet(servers)
	if err != nil {
		return err
	}
	var caps []trace.Point
	if capFile != "" {
		if caps, err = readCaps(capFile); err != nil {
			return err
		}
	} else {
		// Synthesize one peak-shaving schedule at the first -shave level.
		frac := 0.3
		if tok := strings.Split(shavePcts, ",")[0]; tok != "" {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad shave level %q: %v", tok, err)
			}
			frac = v / 100
		}
		load, err := trace.DiurnalLoad(trace.Config{Seed: seed, StepSeconds: stepS})
		if err != nil {
			return err
		}
		demand := make([]trace.Point, len(load))
		for i, p := range load {
			demand[i] = trace.Point{T: p.T, V: p.V * uc}
		}
		caps, err = trace.PeakShaveCaps(demand, frac, uc)
		if err != nil {
			return err
		}
	}

	if killStep >= 0 {
		return runHADrill(ev, caps, strat, servers, killStep, members)
	}
	flt, err := ctrlplane.StartSimFleetOpts(ev, ctrlplane.FleetOptions{
		Version: buildinfo.Version(), SharedListener: true,
	})
	if err != nil {
		return err
	}
	defer flt.Close()
	interval := stepS
	if len(caps) > 1 {
		interval = caps[1].T - caps[0].T
	}
	coord, err := ctrlplane.New(ctrlplane.Config{
		Agents:   flt.Refs(),
		Strategy: strat,
		// One interval of lease: a grant the coordinator does not refresh
		// at its next step is fenced by then.
		LeaseIv:   1,
		IntervalS: interval,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	fmt.Printf("replaying %d cap steps over %d networked agents (%v)\n", len(caps), servers, strat)
	var capViolations int
	results, err := coord.Replay(context.Background(), caps, func(res ctrlplane.StepResult) {
		if err := flt.Tick(res.T); err == nil {
			if flt.FleetGridW() > res.CapW+1e-6 {
				capViolations++
			}
		}
	})
	if err != nil {
		return err
	}

	oracleStrat := cluster.EqualOurs
	if strat == ctrlplane.StrategyUtility {
		oracleStrat = cluster.UtilityOurs
	}
	oracle, err := ev.Evaluate(caps, oracleStrat)
	if err != nil {
		return err
	}
	var maxDelta float64
	for i, res := range results {
		for j, b := range res.Budgets {
			maxDelta = math.Max(maxDelta, math.Abs(b-oracle.BudgetSeries[i][j]))
		}
	}
	st := coord.Stats()
	fmt.Printf("  budget parity vs %v: max |Δ| = %g W over %d steps x %d servers\n",
		oracleStrat, maxDelta, len(results), servers)
	fmt.Printf("  cap violations %d, scrape failures %d, assign failures %d, re-apportions %d\n",
		capViolations, st.ScrapeFailures, st.AssignFailures, st.Reapportions)
	ws := coord.WireStats()
	fmt.Printf("  wire: %d batch frames carried %d ops; %d conns dialed, %d reused\n",
		st.BatchFrames, st.BatchedOps, ws.BinaryDials, ws.BinaryReuses)
	if maxDelta != 0 {
		return fmt.Errorf("networked replay diverged from the simulation by %g W", maxDelta)
	}
	return nil
}

// runHADrill runs the failover drill (scenario.RunHADrill), prints its
// leaderless intervals and budget parity, and fails on a slow or
// out-of-rank takeover, any budget divergence or any cap violation.
func runHADrill(ev *cluster.Evaluator, caps []trace.Point, strat ctrlplane.Strategy, servers, killStep, members int) error {
	res, err := scenario.RunHADrill(scenario.HADrillOptions{
		Eval: ev, Caps: caps, Strategy: strat, KillStep: killStep, Members: members,
	})
	if err != nil {
		return err
	}
	fmt.Printf("HA drill: %d cap steps over %d networked agents (%v), %d members on a %s, leader killed at step %d\n",
		len(caps), servers, strat, members, res.Store, killStep)
	fmt.Printf("  failover: %d leaderless interval(s); standby led from step %d under epoch %d (%d failover, %d holdoffs down-pool)\n",
		res.Leaderless, res.TakeoverStep, res.Epoch, res.Failovers, res.Holdoffs)
	fmt.Printf("  budget parity vs %v on %d granted steps: max |Δ| = %g W; cap violations %d\n",
		res.Oracle, res.GrantedSteps, res.MaxDeltaW, res.CapViolations)
	switch {
	case res.TakeoverStep < 0:
		return fmt.Errorf("standby never took over after the kill at step %d", killStep)
	case res.Leaderless > 1:
		return fmt.Errorf("fleet leaderless for %d intervals, want at most one", res.Leaderless)
	case !res.Leading || res.Failovers != 1:
		return fmt.Errorf("takeover skipped rank 1: member 1 leading=%v with %d failovers", res.Leading, res.Failovers)
	case res.MaxDeltaW != 0:
		return fmt.Errorf("HA replay diverged from the simulation by %g W", res.MaxDeltaW)
	case res.CapViolations > 0:
		return fmt.Errorf("%d cap violations during the drill", res.CapViolations)
	}
	return nil
}

// runTwoTier drives the hierarchical drill — per-shard coordinator HA
// pairs over loopback binary trunks under one global apportioner — and
// prints every interval's budget ledger. Any broken cap invariant is a
// non-zero exit: the drill is the CLI face of the two-tier safety
// argument, so a violation is a failure, not a statistic.
func runTwoTier(opts scenario.TwoTierOptions) error {
	fmt.Printf("two-tier drill: %d shards x %d agents (%d total), %d intervals, seed %d\n",
		opts.Shards, opts.AgentsPerShard, opts.Shards*opts.AgentsPerShard, opts.Intervals, opts.Seed)
	switch {
	case opts.KillLeaderStep > 0:
		fmt.Printf("  chaos: shard %d leader killed at interval %d (warm standby promotes)\n",
			opts.KillShard, opts.KillLeaderStep)
	case opts.KillShardStep > 0:
		fmt.Printf("  chaos: shard %d loses both coordinators at interval %d (budget reserved until reclaim)\n",
			opts.KillShard, opts.KillShardStep)
	}
	if opts.SaturateStep > 0 {
		fmt.Printf("  chaos: shard %d saturates to nameplate at interval %d\n",
			opts.SaturateShard, opts.SaturateStep)
	}
	res, err := scenario.RunTwoTierDrill(opts)
	if err != nil {
		return err
	}
	fmt.Printf("  %4s %9s %9s %9s %9s %9s %6s %9s\n",
		"iv", "capW", "grantedW", "reservedW", "rebalW", "capsumW", "alive", "ms")
	for i, iv := range res.Intervals {
		fmt.Printf("  %4d %9.1f %9.1f %9.1f %9.1f %9.1f %6d %9.2f\n",
			i+1, iv.CapW, iv.SumBudgetsW, iv.ReservedW, iv.RebalancedW, iv.AgentCapSumW,
			iv.GlobalAlive, float64(iv.WallNs)/1e6)
	}
	fmt.Printf("  final shard budgets (W):")
	for _, w := range res.ShardBudgetW {
		fmt.Printf(" %.1f", w)
	}
	fmt.Println()
	fmt.Printf("  failovers %d, shard expiries %d, rejoins %d, reclaims %d, scrape failures %d, grant failures %d\n",
		res.Failovers, res.Stats.ShardExpiries, res.Stats.ShardRejoins, res.Stats.Reclaims,
		res.Stats.ScrapeFailures, res.Stats.GrantFailures)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Printf("  VIOLATION %s\n", v)
		}
		return fmt.Errorf("two-tier drill broke %d invariant(s)", len(res.Violations))
	}
	fmt.Println("  all cap invariants held")
	return nil
}

// readCaps loads a cap schedule from a (seconds,value) CSV.
func readCaps(path string) ([]trace.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

// dumpDemand writes the synthetic demand trace as CSV.
func dumpDemand(path string, servers int, stepS float64, seed int64) error {
	_, uc, err := fleet(servers)
	if err != nil {
		return err
	}
	load, err := trace.DiurnalLoad(trace.Config{Seed: seed, StepSeconds: stepS})
	if err != nil {
		return err
	}
	demand := make([]trace.Point, len(load))
	for i, p := range load {
		demand[i] = trace.Point{T: p.T, V: p.V * uc}
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
