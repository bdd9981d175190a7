// psperf is the repo's interval-cost benchmark: four seeded, closed-loop
// workloads built from the public functions of the internal packages,
// each reporting what one control interval costs end to end and — in a
// separate traced pass — where inside it the time goes. BENCHMARK.json
// at the repo root names this program; README.md in this directory
// defines every metric and workload.
//
// Loopback TCP, no injected delay, no faults. One driver goroutine; the
// next interval starts when the previous one has returned.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// e2eDef is one end-to-end metric's contract: unit, direction, and the
// share of the parent's median it may worsen by before a change counts
// as a regression. BENCHMARK.json mirrors this table; a test holds the
// two together.
type e2eDef struct {
	name, unit, better string
	bound              float64
}

// benchRunSeconds is BENCHMARK.json's run_seconds: how long the driver
// lets one run measure. 20 s gives the slowest workload (tree-1k-8,
// ~45 ms an interval) some 450 samples, 45 beyond p90.
const benchRunSeconds = 20

// The four timing rows carry the widest bound the benchmark contract
// allows: on the shared 2-core box a run's host speed differs from the
// next run's by a tenth or more, which no amount of measuring inside a
// run removes (README.md, Repeatability). The counted rows repeat to a
// percent or two and are bounded accordingly.
var e2eDefs = []e2eDef{
	{"interval_p50_ms", "ms", "lower", 0.25},
	{"interval_p90_ms", "ms", "lower", 0.25},
	{"intervals_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_interval", "ms", "lower", 0.25},
	{"allocs_per_interval", "count", "lower", 0.05},
	{"alloc_kb_per_interval", "KiB", "lower", 0.08},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"perf_frac", "ratio", "higher", 0.05},
}

// report is one run's full result.
type report struct {
	Plan          plan        `json:"plan"`
	Host          host        `json:"host"`
	CalibBeforeMs float64     `json:"host_calib_before_ms"`
	CalibAfterMs  float64     `json:"host_calib_after_ms"`
	Noisy         bool        `json:"noisy"`
	Attempted     int         `json:"attempted"`
	Failed        int         `json:"failed"`
	Correct       bool        `json:"correct"`
	Problems      []string    `json:"problems,omitempty"`
	Warnings      []string    `json:"warnings,omitempty"`
	Window        int         `json:"window"`
	WindowWant    int         `json:"window_want"`
	InputDigest   string      `json:"input_digest"`
	OutcomeDigest string      `json:"outcome_digest"`
	Tail          tailReading `json:"tail"`
	Metrics       []metric    `json:"metrics"`
	TracePath     string      `json:"trace_path,omitempty"`
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// contractLine is the last line of standard output: the object the
// driver parses.
func (r *report) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can get here; that is an invalid run.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, max(r.Attempted, 1), r.Failed)
	}
	return string(b)
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "psperf %s  seed=%d seconds=%g intervals=%d setups=%d trace=%v\n",
		r.Plan.Workload, r.Plan.Seed, r.Plan.Seconds, r.Plan.Intervals, r.Plan.Setups, r.Plan.Trace)
	fmt.Fprintf(w, "  host: nproc=%d GOMAXPROCS=%d %s; loopback TCP, no injected delay, no faults; closed loop, 1 driver\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion)
	fmt.Fprintf(w, "  host_calib_ms: before=%.2f after=%.2f noisy=%v\n", r.CalibBeforeMs, r.CalibAfterMs, r.Noisy)
	fmt.Fprintf(w, "  intervals: attempted=%d failed=%d (failed_frac=%g)\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Fprintf(w, "  input_digest=%s outcome_digest=%s over the first %d of %d window intervals\n",
		r.InputDigest, r.OutcomeDigest, r.Window, r.WindowWant)
	if !r.Plan.Trace {
		if r.Tail.Sliced {
			fmt.Fprintf(w, "  interval_p90_ms reports the lower quartile of the p%d of %d consecutive slices; the whole pass's p%g is %.6g ms\n",
				tailPct, tailSlices, r.Tail.Pct, r.Tail.WholeMs)
		} else {
			fmt.Fprintf(w, "  interval_p90_ms reports the whole pass's p%g (highest percentile ≤ %d with ≥ %d samples beyond it): too few intervals for %d slices\n",
				r.Tail.Pct, tailPct, percentileBeyond, tailSlices)
		}
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if r.TracePath != "" {
		fmt.Fprintf(w, "  trace written to %s\n", r.TracePath)
	}
	for _, p := range r.Warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", p)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  INVALID: %s\n", p)
	}
	// The whole report as one line, for runAll and -repeat to parse.
	if b, err := json.Marshal(r); err == nil {
		fmt.Fprintf(w, "%s%s\n", reportPrefix, b)
	}
}

// reportPrefix marks the machine-readable copy of the report in a
// child's output.
const reportPrefix = "report: "

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setupTimes builds the workload setups times, keeping only the last
// one, and returns each build's wall time.
func setupTimes(sp spec, seed int64, sz size, setups int) (workload, []float64, error) {
	var times []float64
	var w workload
	for k := 0; k < setups; k++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		if k == setups-1 {
			resetPeakRSS()
		}
		t0 := time.Now()
		var err error
		if w, err = sp.build(seed, sz, nil); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, times, nil
}

// runUntraced is the end-to-end pass.
func runUntraced(ctx context.Context, sp spec, pl plan) (*report, error) {
	r := &report{Plan: pl, Host: thisHost(), Correct: true}
	sz := size{smoke: pl.Smoke, window: sp.window}
	r.CalibBeforeMs = calibLoop(pl.Smoke)
	w, setups, err := setupTimes(sp, pl.Seed, sz, pl.Setups)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var p pass
	err = measure(ctx, w, &p, pl.Seconds, pl.Intervals, minTimedIntervals, nil)
	peakRSS := peakRSSMiB()
	r.fold(p)
	if err != nil {
		r.problem("%v", err)
		return r, nil
	}
	o, err := w.finish()
	if err != nil {
		r.problem("%v", err)
	}
	r.CalibAfterMs = calibLoop(pl.Smoke)
	r.Noisy = noisy(r.CalibBeforeMs, r.CalibAfterMs)
	r.outcome(o, sp.window)
	r.Metrics, r.Tail = endToEnd(p, o, median(setups), peakRSS)
	return r, nil
}

func (r *report) fold(p pass) {
	r.Attempted, r.Failed = p.attempted, p.failed
	if p.failed > 0 {
		r.problem("%d of %d intervals failed; first: %s", p.failed, p.attempted, p.firstFail)
	}
	if p.attempted == 0 {
		r.Attempted = 1
		r.problem("no interval was measured")
	}
}

func (r *report) outcome(o outcome, want int) {
	r.Window, r.WindowWant = o.window, want
	if o.window < want && !r.Plan.Trace {
		r.Warnings = append(r.Warnings, fmt.Sprintf("only %d of the %d window intervals were measured: digests, perf_frac and cap_settle_iv are not comparable with a full run's", o.window, want))
	}
	r.InputDigest = fmt.Sprintf("%016x", o.inputDigest)
	r.OutcomeDigest = fmt.Sprintf("%016x", o.outcomeDigest)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (default: all four, each in a fresh child process)")
	seed := fs.Int64("seed", 1, "seed for every input generator")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	intervals := fs.Int("intervals", 0, "run exactly this many measured intervals instead of -seconds (-1: the workload's nominal count)")
	trace := fs.String("trace", "0", "1: traced pass, prints the per-layer metrics; 0: untraced pass, prints the end-to-end metrics")
	outDir := fs.String("out", "", "directory the traced pass writes its Chrome trace to (default: not written)")
	repeat := fs.Int("repeat", 0, "run this many untraced sets back to back and print per-metric min/median/max against the bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil || fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "psperf: bad arguments")
		fs.Usage()
		return 2
	}
	if *name == "" {
		return runAll(args, *repeat, stdout, stderr)
	}
	sp, ok := findSpec(*name)
	if !ok {
		fmt.Fprintf(stderr, "psperf: unknown workload %q\n", *name)
		return 2
	}
	pl := plan{Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: traced}
	if !traced {
		pl.Setups = sp.setups
	}
	switch {
	case *intervals < 0:
		pl.Intervals, pl.Seconds = sp.nominal, 0
	case *intervals > 0:
		pl.Intervals, pl.Seconds = *intervals, 0
	}
	ctx := context.Background()
	var r *report
	if traced {
		r, err = runTraced(ctx, sp, pl, *outDir)
	} else {
		r, err = runUntraced(ctx, sp, pl)
	}
	if err != nil {
		fmt.Fprintf(stderr, "psperf: %v\n", err)
		return 1
	}
	r.print(stdout)
	fmt.Fprintln(stdout, r.contractLine())
	if !r.Correct {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh child process (so peak RSS and
// heap state do not leak between workloads), relays its human-readable
// report to out, and returns the parsed machine-readable copy.
func runChild(args []string, workload string, traced bool, out, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	// Later flags override earlier ones, so the parent's own arguments
	// pass through and the child-specific ones win.
	cmd := exec.Command(self, append(append([]string{}, args...), "-workload", workload, "-trace", t, "-repeat", "0")...)
	cmd.Stderr = stderr
	stdout, runErr := cmd.Output()
	var r *report
	for _, line := range strings.Split(string(stdout), "\n") {
		switch {
		case strings.HasPrefix(line, reportPrefix):
			r = &report{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, reportPrefix)), r); err != nil {
				return nil, fmt.Errorf("%s: unreadable report line: %w", workload, err)
			}
		case strings.HasPrefix(line, "{"):
			// The contract line; the report line carries the same.
		default:
			if line != "" {
				fmt.Fprintln(out, line)
			}
		}
	}
	if r == nil {
		return nil, fmt.Errorf("%s: child printed no report (%v)", workload, runErr)
	}
	return r, nil
}

func (r *report) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// runAll is the one command that prints every metric: each workload's
// untraced then traced pass in child processes, then the cross-workload
// tree tax. With repeat > 0 it runs the repeatability study instead.
func runAll(args []string, repeat int, stdout, stderr io.Writer) int {
	if repeat > 0 {
		return runRepeat(args, repeat, stdout, stderr)
	}
	code := 0
	p50 := map[string]float64{}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			r, err := runChild(args, sp.name, traced, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "psperf: %v\n", err)
				return 1
			}
			if !r.Correct {
				code = 1
			}
			if !traced {
				p50[sp.name] = r.value("interval_p50_ms")
			}
		}
	}
	if flat, tree := p50["flat-1k"], p50["tree-1k-8"]; flat > 0 && tree > 0 {
		fmt.Fprintf(stdout, "ctrlplane.tree_tax_x from the untraced passes: %.3f ms ÷ %.3f ms = %.2f x (ROADMAP target ≤ 2)\n", tree, flat, tree/flat)
	}
	return code
}

// runRepeat runs n untraced sets back to back and prints, for every
// (end-to-end metric, workload), min/median/max and whether the spread
// — interquartile range ÷ median, as the driver takes it; max−min ÷
// median below four sets — is inside the metric's bound. Deterministic
// outputs must be identical across sets, and results whose plans or
// hosts differ are refused, not compared.
func runRepeat(args []string, n int, stdout, stderr io.Writer) int {
	code := 0
	runs := map[string][]*report{}
	for set := 0; set < n; set++ {
		for _, sp := range specs {
			r, err := runChild(args, sp.name, false, io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "psperf: set %d: %v\n", set, err)
				return 1
			}
			if !r.Correct {
				fmt.Fprintf(stderr, "psperf: set %d %s invalid: %s\n", set, sp.name, strings.Join(r.Problems, "; "))
				return 1
			}
			if first := runs[sp.name]; len(first) > 0 && (first[0].Plan != r.Plan || first[0].Host != r.Host) {
				fmt.Fprintf(stderr, "psperf: set %d %s ran plan %+v on %+v, set 0 ran %+v on %+v: refusing to compare\n",
					set, sp.name, r.Plan, r.Host, first[0].Plan, first[0].Host)
				return 1
			}
			runs[sp.name] = append(runs[sp.name], r)
		}
	}
	for _, sp := range specs {
		rs := runs[sp.name]
		noisySets := 0
		for _, r := range rs {
			if r.Noisy {
				noisySets++
			}
		}
		fmt.Fprintf(stdout, "%s: %d sets, %d flagged noisy by host_calib_ms; plan %+v\n", sp.name, n, noisySets, rs[0].Plan)
		for _, d := range e2eDefs {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = r.value(d.name)
			}
			sort.Float64s(xs)
			med, _ := percentile(xs, 50)
			spread := (xs[len(xs)-1] - xs[0]) / med
			if len(xs) >= 4 {
				q := quartiles(xs)
				spread = (q[2] - q[0]) / q[1]
			}
			verdict := "inside"
			if spread > d.bound {
				verdict, code = "OUTSIDE", 1
			}
			fmt.Fprintf(stdout, "  %-24s min=%-12.6g median=%-12.6g max=%-12.6g spread=%.4f bound=%.2f %s\n",
				d.name, xs[0], med, xs[len(xs)-1], spread, d.bound, verdict)
		}
		same, covered := true, true
		for _, r := range rs {
			same = same && r.InputDigest == rs[0].InputDigest && r.OutcomeDigest == rs[0].OutcomeDigest
			covered = covered && r.Window == r.WindowWant
		}
		switch {
		case !covered:
			fmt.Fprintf(stdout, "  digests NOT COMPARABLE: some set measured fewer than the %d window intervals; run longer\n", rs[0].WindowWant)
			code = 1
		case !same:
			fmt.Fprintf(stdout, "  digests DIFFER across sets of one plan: behaviour is not deterministic\n")
			code = 1
		default:
			fmt.Fprintf(stdout, "  input_digest=%s outcome_digest=%s identical across sets (window %d)\n",
				rs[0].InputDigest, rs[0].OutcomeDigest, rs[0].Window)
		}
	}
	return code
}
