// Command psbench measures the control plane's wire cost — interval
// latency and allocations per agent — across transports and fleet
// sizes, and gates regressions against the committed baseline.
//
//	psbench                                   # run the matrix, print the table
//	psbench -write BENCH_ctrlplane.json       # refresh the committed baseline
//	psbench -check BENCH_ctrlplane.json       # CI: fail on >20% regression
//
// Methodology (docs/BENCHMARKS.md): constant-time agent backends behind
// a single shared listener, constant cap so every measured interval is
// steady-state scrape + coalesced renewal, N >= 5 runs per cell with
// the minimum reported. -check normalizes wall-clock latency by a host
// factor (the json/10 reference cell) so a faster or slower CI machine
// does not mask or fake a regression; allocation counts are compared
// directly, since they are host-independent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
)

// baselineFile is the committed BENCH_ctrlplane.json schema.
type baselineFile struct {
	Schema    int                       `json:"schema"`
	Scenario  string                    `json:"scenario"`
	Policy    string                    `json:"policy"`
	GoVersion string                    `json:"go_version"`
	Cells     []ctrlplane.WireBenchCell `json:"cells"`
	// Hier is the two-tier matrix: the whole hierarchical control loop
	// (every shard step plus the global step) timed per interval.
	Hier []ctrlplane.HierBenchCell `json:"hier_cells,omitempty"`
	// DP is the apportioning-DP matrix: the full ApportionCurves
	// recompute against the incremental fast path when k of n member
	// curves change per interval — the hot path once a learning fleet's
	// curves move between intervals.
	DP []cluster.DPBenchCell `json:"dp_cells,omitempty"`
}

const scenarioDesc = "constant cap, steady-state renewals, constant-time backend, shared loopback listener"
const policyDesc = "min over N>=5 runs per cell; latency normalized by the json/10 host factor on -check; see docs/BENCHMARKS.md"

func main() {
	log.SetFlags(0)
	log.SetPrefix("psbench: ")
	var (
		fleets     = flag.String("fleets", "10,100,1000", "comma-separated fleet sizes to measure")
		transports = flag.String("transports", "json,binary", "comma-separated transports to measure")
		hier       = flag.String("hier", "1000x8", "two-tier cells to measure as AGENTSxSHARDS, comma-separated (empty: skip the binary-2tier matrix)")
		dp         = flag.String("dp", "128x0,128x1,128x4", "apportioning-DP cells to measure as MEMBERSxCHANGED, comma-separated (empty: skip the DP matrix)")
		runs       = flag.Int("runs", 5, "samples per cell (minimum is reported; policy floor is 5)")
		intervals  = flag.Int("intervals", 10, "measured control intervals per sample")
		inflight   = flag.Int("max-inflight", 64, "coordinator fan-out width (identical across cells)")
		write      = flag.String("write", "", "write the results as a baseline file at this path")
		check      = flag.String("check", "", "compare against the baseline file at this path; exit 1 on regression")
		gate       = flag.Float64("gate", 0.20, "regression gate as a fraction (0.20: fail if >20% worse)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	sizes, err := parseSizes(*fleets)
	if err != nil {
		log.Fatal(err)
	}
	var kinds []ctrlplane.TransportKind
	for _, tok := range strings.Split(*transports, ",") {
		k, err := ctrlplane.ParseTransport(strings.TrimSpace(tok))
		if err != nil {
			log.Fatal(err)
		}
		kinds = append(kinds, k)
	}

	var cells []ctrlplane.WireBenchCell
	for _, n := range sizes {
		for _, kind := range kinds {
			log.Printf("measuring %s/%d (%d runs x %d intervals)...", kind, n, *runs, *intervals)
			cell, err := ctrlplane.RunWireBench(ctrlplane.WireBenchOptions{
				Agents:      n,
				Transport:   kind,
				Runs:        *runs,
				Intervals:   *intervals,
				MaxInFlight: *inflight,
			})
			if err != nil {
				log.Fatalf("%s/%d: %v", kind, n, err)
			}
			cells = append(cells, cell)
		}
	}

	hierSpecs, err := parseHier(*hier)
	if err != nil {
		log.Fatal(err)
	}
	var hierCells []ctrlplane.HierBenchCell
	for _, hc := range hierSpecs {
		log.Printf("measuring binary-2tier/%d over %d shards (%d runs x %d intervals)...",
			hc.agents, hc.shards, *runs, *intervals)
		cell, err := ctrlplane.RunHierBench(hc.agents, hc.shards, *runs, *intervals)
		if err != nil {
			log.Fatalf("binary-2tier/%d: %v", hc.agents, err)
		}
		hierCells = append(hierCells, cell)
	}

	dpSpecs, err := parseDP(*dp)
	if err != nil {
		log.Fatal(err)
	}
	var dpCells []cluster.DPBenchCell
	for _, dc := range dpSpecs {
		log.Printf("measuring dp/%d with %d curves changing per interval (%d runs x %d intervals)...",
			dc.members, dc.changed, *runs, *intervals)
		cell, err := cluster.RunDPBench(dc.members, dc.changed, *runs, *intervals)
		if err != nil {
			log.Fatalf("dp/%dx%d: %v", dc.members, dc.changed, err)
		}
		dpCells = append(dpCells, cell)
	}

	printTable(cells)
	printHierTable(hierCells)
	printDPTable(dpCells)
	failed := false
	if err := checkBinaryWins(cells); err != nil {
		log.Printf("FAIL: %v", err)
		failed = true
	}
	for _, e := range checkDPWins(dpCells) {
		log.Printf("FAIL: %v", e)
		failed = true
	}

	if *check != "" {
		base, err := readBaseline(*check)
		if err != nil {
			log.Fatal(err)
		}
		if errs := compareBaseline(base, cells, hierCells, dpCells, *gate); len(errs) > 0 {
			for _, e := range errs {
				log.Printf("FAIL: %v", e)
			}
			failed = true
		} else {
			log.Printf("baseline check passed (gate %.0f%%)", *gate*100)
		}
	}
	if failed {
		os.Exit(1)
	}

	if *write != "" {
		out := baselineFile{
			Schema:    1,
			Scenario:  scenarioDesc,
			Policy:    policyDesc,
			GoVersion: runtime.Version(),
			Cells:     cells,
			Hier:      hierCells,
			DP:        dpCells,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *write)
	}
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad fleet size %q", tok)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no fleet sizes")
	}
	return sizes, nil
}

// hierSpec sizes one two-tier cell.
type hierSpec struct {
	agents, shards int
}

// parseHier accepts "AGENTSxSHARDS,..." (e.g. "1000x8,2000x16").
func parseHier(s string) ([]hierSpec, error) {
	var specs []hierSpec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		a, sh, ok := strings.Cut(tok, "x")
		if !ok {
			return nil, fmt.Errorf("bad hier cell %q (want AGENTSxSHARDS)", tok)
		}
		agents, err1 := strconv.Atoi(strings.TrimSpace(a))
		shards, err2 := strconv.Atoi(strings.TrimSpace(sh))
		if err1 != nil || err2 != nil || agents <= 0 || shards <= 0 || agents%shards != 0 {
			return nil, fmt.Errorf("bad hier cell %q (want AGENTSxSHARDS, agents divisible by shards)", tok)
		}
		specs = append(specs, hierSpec{agents: agents, shards: shards})
	}
	return specs, nil
}

// dpSpec sizes one apportioning-DP cell.
type dpSpec struct {
	members, changed int
}

// parseDP accepts "MEMBERSxCHANGED,..." (e.g. "128x0,128x1,128x4").
func parseDP(s string) ([]dpSpec, error) {
	var specs []dpSpec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		m, ch, ok := strings.Cut(tok, "x")
		if !ok {
			return nil, fmt.Errorf("bad dp cell %q (want MEMBERSxCHANGED)", tok)
		}
		members, err1 := strconv.Atoi(strings.TrimSpace(m))
		changed, err2 := strconv.Atoi(strings.TrimSpace(ch))
		if err1 != nil || err2 != nil || members <= 0 || changed < 0 || changed > members {
			return nil, fmt.Errorf("bad dp cell %q (want MEMBERSxCHANGED, 0 <= changed <= members)", tok)
		}
		specs = append(specs, dpSpec{members: members, changed: changed})
	}
	return specs, nil
}

func printTable(cells []ctrlplane.WireBenchCell) {
	fmt.Printf("%-9s %7s %15s %14s %7s %8s %13s\n",
		"transport", "agents", "ns/interval", "allocs/agent", "dials", "reuses", "batch frames")
	for _, c := range cells {
		fmt.Printf("%-9s %7d %15d %14.1f %7d %8d %13d\n",
			c.Transport, c.Agents, c.NsPerInterval, c.AllocsPerAgentInterval,
			c.ConnDials, c.ConnReuses, c.BatchFrames)
	}
}

func printHierTable(cells []ctrlplane.HierBenchCell) {
	if len(cells) == 0 {
		return
	}
	fmt.Printf("%-12s %7s %7s %15s\n", "transport", "agents", "shards", "ns/interval")
	for _, c := range cells {
		fmt.Printf("%-12s %7d %7d %15d\n", c.Transport, c.Agents, c.Shards, c.NsPerInterval)
	}
}

func printDPTable(cells []cluster.DPBenchCell) {
	if len(cells) == 0 {
		return
	}
	fmt.Printf("%-8s %8s %15s %15s %9s %13s\n",
		"members", "changed", "full ns/iv", "inc ns/iv", "speedup", "layers/iv")
	for _, c := range cells {
		fmt.Printf("%-8d %8d %15d %15d %9.1f %13.1f\n",
			c.Members, c.Changed, c.FullNsPerInterval, c.IncNsPerInterval,
			c.Speedup, c.MeanLayersRecomputed)
	}
}

// checkDPWins enforces the incremental apportioner's structural claim
// on every measured cell: it rebuilds strictly fewer member layers than
// the full DP whenever some curves held still, rebuilds none at all
// when only the cap moved, and turns the saved layers into wall-clock
// wins when few curves change.
func checkDPWins(cells []cluster.DPBenchCell) []error {
	var errs []error
	for _, c := range cells {
		if c.Changed == 0 {
			if c.MeanLayersRecomputed != 0 {
				errs = append(errs, fmt.Errorf(
					"dp/%dx0 rebuilt %.1f layers/interval on cap-only changes, want 0",
					c.Members, c.MeanLayersRecomputed))
			}
			if c.Speedup < 3 {
				errs = append(errs, fmt.Errorf(
					"dp/%dx0 cap-only speedup %.1fx under the 3x floor", c.Members, c.Speedup))
			}
			continue
		}
		if c.Changed*8 <= c.Members { // k << n: the sublinear regime
			if c.MeanLayersRecomputed >= 0.9*float64(c.Members) {
				errs = append(errs, fmt.Errorf(
					"dp/%dx%d rebuilt %.1f layers/interval, not sublinear in %d members",
					c.Members, c.Changed, c.MeanLayersRecomputed, c.Members))
			}
			if c.IncNsPerInterval >= c.FullNsPerInterval {
				errs = append(errs, fmt.Errorf(
					"dp/%dx%d incremental %d ns does not beat full %d ns",
					c.Members, c.Changed, c.IncNsPerInterval, c.FullNsPerInterval))
			}
		}
	}
	return errs
}

func findDPCell(cells []cluster.DPBenchCell, members, changed int) *cluster.DPBenchCell {
	for i := range cells {
		if cells[i].Members == members && cells[i].Changed == changed {
			return &cells[i]
		}
	}
	return nil
}

func findHierCell(cells []ctrlplane.HierBenchCell, agents, shards int) *ctrlplane.HierBenchCell {
	for i := range cells {
		if cells[i].Agents == agents && cells[i].Shards == shards {
			return &cells[i]
		}
	}
	return nil
}

func findCell(cells []ctrlplane.WireBenchCell, transport string, agents int) *ctrlplane.WireBenchCell {
	for i := range cells {
		if cells[i].Transport == transport && cells[i].Agents == agents {
			return &cells[i]
		}
	}
	return nil
}

// checkBinaryWins enforces the headline claim whenever the matrix
// includes both transports: at the largest fleet size, binary must beat
// JSON on interval latency and on allocations per agent.
func checkBinaryWins(cells []ctrlplane.WireBenchCell) error {
	max := 0
	for _, c := range cells {
		if c.Agents > max {
			max = c.Agents
		}
	}
	j, b := findCell(cells, "json", max), findCell(cells, "binary", max)
	if j == nil || b == nil {
		return nil // single-transport exploration run; nothing to compare
	}
	if b.NsPerInterval >= j.NsPerInterval {
		return fmt.Errorf("binary interval latency %d ns does not beat json %d ns at %d agents",
			b.NsPerInterval, j.NsPerInterval, max)
	}
	if b.AllocsPerAgentInterval >= j.AllocsPerAgentInterval {
		return fmt.Errorf("binary allocs/agent %.1f do not beat json %.1f at %d agents",
			b.AllocsPerAgentInterval, j.AllocsPerAgentInterval, max)
	}
	return nil
}

func readBaseline(path string) (baselineFile, error) {
	var base baselineFile
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	if base.Schema != 1 {
		return base, fmt.Errorf("%s: schema %d, want 1", path, base.Schema)
	}
	return base, nil
}

// minGatedNs is the shortest baseline latency the wall-clock gate
// applies to. A cell that runs for microseconds reads ±50 % from one
// run to the next of one binary on a shared box, which the 20 % gate
// turns into failures on an unchanged tree; such cells are gated on
// their counted fields alone (allocations, dials, frames, layers).
const minGatedNs = 1_000_000

// compareBaseline gates the current cells against the committed
// baseline. Wall-clock latency is normalized by the host factor — the
// ratio of the reference cell (json at the smallest common fleet size)
// between this host and the baseline host — so only relative
// regressions fail, and is gated only on cells whose baseline is at
// least minGatedNs. Counted fields compare directly.
func compareBaseline(base baselineFile, cells []ctrlplane.WireBenchCell, hier []ctrlplane.HierBenchCell, dp []cluster.DPBenchCell, gate float64) []error {
	refAgents := 0
	for _, bc := range base.Cells {
		if bc.Transport != "json" {
			continue
		}
		if findCell(cells, "json", bc.Agents) == nil {
			continue
		}
		if refAgents == 0 || bc.Agents < refAgents {
			refAgents = bc.Agents
		}
	}
	if refAgents == 0 {
		return []error{fmt.Errorf("no common json reference cell between baseline and this run")}
	}
	refBase := findCell(base.Cells, "json", refAgents)
	refCur := findCell(cells, "json", refAgents)
	hostFactor := float64(refCur.NsPerInterval) / float64(refBase.NsPerInterval)

	// slow normalizes a latency by the host factor and reports whether
	// it trips the gate against a baseline long enough to be gated.
	slow := func(curNs, baseNs int64) (normNs float64, tripped bool) {
		normNs = float64(curNs) / hostFactor
		return normNs, baseNs >= minGatedNs && normNs > float64(baseNs)*(1+gate)
	}
	var errs []error
	for i := range base.Cells {
		bc := &base.Cells[i]
		cur := findCell(cells, bc.Transport, bc.Agents)
		if cur == nil {
			errs = append(errs, fmt.Errorf("baseline cell %s/%d not measured in this run", bc.Transport, bc.Agents))
			continue
		}
		if normNs, tripped := slow(cur.NsPerInterval, bc.NsPerInterval); tripped {
			errs = append(errs, fmt.Errorf(
				"%s/%d interval latency regressed: %.0f ns normalized (host factor %.2f) vs baseline %d ns (gate %.0f%%)",
				bc.Transport, bc.Agents, normNs, hostFactor, bc.NsPerInterval, gate*100))
		}
		if cur.AllocsPerAgentInterval > bc.AllocsPerAgentInterval*(1+gate) {
			errs = append(errs, fmt.Errorf(
				"%s/%d allocs/agent regressed: %.1f vs baseline %.1f (gate %.0f%%)",
				bc.Transport, bc.Agents, cur.AllocsPerAgentInterval, bc.AllocsPerAgentInterval, gate*100))
		}
		// Dials and batch frames are whole-cell counts fixed by the
		// sampling plan; under the same plan more of either is a lost
		// connection or a lost coalescing, whatever the clock says.
		if cur.Runs == bc.Runs && cur.Intervals == bc.Intervals &&
			(cur.ConnDials > bc.ConnDials || cur.BatchFrames > bc.BatchFrames) {
			errs = append(errs, fmt.Errorf(
				"%s/%d wire counts regressed: %d dials, %d batch frames vs baseline %d, %d",
				bc.Transport, bc.Agents, cur.ConnDials, cur.BatchFrames, bc.ConnDials, bc.BatchFrames))
		}
	}
	// The two-tier cells gate the same way: the shared json reference
	// host factor normalizes wall clock, so only a relative regression
	// of the hierarchical loop fails.
	for i := range base.Hier {
		bc := &base.Hier[i]
		cur := findHierCell(hier, bc.Agents, bc.Shards)
		if cur == nil {
			errs = append(errs, fmt.Errorf("baseline cell %s/%dx%d not measured in this run",
				bc.Transport, bc.Agents, bc.Shards))
			continue
		}
		if normNs, tripped := slow(cur.NsPerInterval, bc.NsPerInterval); tripped {
			errs = append(errs, fmt.Errorf(
				"%s/%dx%d interval latency regressed: %.0f ns normalized (host factor %.2f) vs baseline %d ns (gate %.0f%%)",
				bc.Transport, bc.Agents, bc.Shards, normNs, hostFactor, bc.NsPerInterval, gate*100))
		}
	}
	// The DP cells gate on the incremental path's latency (host-factor
	// normalized like every wall-clock number) and on the structural
	// metric directly: mean layers rebuilt per interval is seeded and
	// host-independent, so it compares exactly.
	for i := range base.DP {
		bc := &base.DP[i]
		cur := findDPCell(dp, bc.Members, bc.Changed)
		if cur == nil {
			errs = append(errs, fmt.Errorf("baseline cell dp/%dx%d not measured in this run", bc.Members, bc.Changed))
			continue
		}
		if cur.Runs != bc.Runs || cur.Intervals != bc.Intervals {
			// A different sampling plan walks a different prefix of the
			// seeded mutation stream: neither the layer counts nor the
			// per-interval minima are comparable. The structural gate
			// (checkDPWins) still ran on this run's own numbers.
			continue
		}
		if normNs, tripped := slow(cur.IncNsPerInterval, bc.IncNsPerInterval); tripped {
			errs = append(errs, fmt.Errorf(
				"dp/%dx%d incremental latency regressed: %.0f ns normalized (host factor %.2f) vs baseline %d ns (gate %.0f%%)",
				bc.Members, bc.Changed, normNs, hostFactor, bc.IncNsPerInterval, gate*100))
		}
		if cur.MeanLayersRecomputed > bc.MeanLayersRecomputed {
			errs = append(errs, fmt.Errorf(
				"dp/%dx%d rebuilt %.1f layers/interval vs baseline %.1f: the incremental cache lost reuse",
				bc.Members, bc.Changed, cur.MeanLayersRecomputed, bc.MeanLayersRecomputed))
		}
	}
	return errs
}
