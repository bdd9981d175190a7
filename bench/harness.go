package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"powerstruggle/internal/cluster"
)

// workload is one closed-loop scenario. The harness owns the clock:
// prepare generates interval i's inputs (untimed), step is the timed
// control interval, check validates its outputs (untimed) and returns a
// non-nil error when the interval failed.
type workload interface {
	prepare(i int) error
	step(ctx context.Context, i int) error
	check(i int) error
	// finish runs the end-of-run validity gates and returns the
	// workload's deterministic outcome.
	finish() (outcome, error)
	close()
}

// outcome is what a workload reports besides timing. perfFrac,
// capSettleIv and the digests cover the first `window` measured
// intervals only, so they are a function of the seed and not of how
// many intervals the host fit into the run.
type outcome struct {
	perfFrac      float64
	capSettleIv   int
	window        int
	inputDigest   uint64
	outcomeDigest uint64
	// layer carries the workload's own per-layer counters (metric name
	// → value); the traced pass adds the span-derived ones.
	layer map[string]float64
}

// spec names a workload and how to build it. build includes warm-up:
// when it returns, the next step is the first measured interval.
type spec struct {
	name string
	why  string
	// nominal is the fixed interval count -intervals -1 runs; window is
	// the prefix the deterministic metrics cover.
	nominal int
	window  int
	// setups is how many times an untraced run sets the workload up:
	// setup_s is the median, not one noisy reading. The set-ups that take
	// tens of milliseconds are repeated more often than the ones that
	// take seconds.
	setups int
	// wire marks the workloads with a control-plane wire to meter.
	wire  bool
	build func(seed int64, sz size, tr *spanRec) (workload, error)
}

// size is what a builder is told besides the seed.
type size struct {
	// smoke shrinks the fleets to the 1/100-scale the tests run.
	smoke bool
	// window is the prefix of measured intervals the deterministic
	// metrics and digests cover.
	window int
	// hub attaches an internal/telemetry hub to every coordinator, for
	// the ps_ctrl_wire_bytes_total counter. The product's own telemetry
	// adds about 7 % to a 1k-agent interval and doubles its allocations
	// (per-agent labelled gauges), so no timed pass runs with it.
	hub bool
}

// plan is everything that decides what work a run does. Results are
// comparable only between equal plans.
type plan struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Intervals int     `json:"intervals"`
	Setups    int     `json:"setups"`
	Smoke     bool    `json:"smoke"`
	Trace     bool    `json:"trace"`
}

// host is printed with every result; numbers from different hosts are
// not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func thisHost() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// pass is one measured phase's raw numbers.
type pass struct {
	ms        []float64 // per-interval wall time, in order
	wallS     float64
	cpuS      float64
	mallocs   uint64
	allocB    uint64
	attempted int
	failed    int
	firstFail string
	// slices cut the pass into about passSlices consecutive pieces.
	// Throughput and CPU per interval are reported as the median over
	// them: a burst of host noise that lands in a few slices moves a
	// whole-pass mean, not the median slice.
	slices []passSlice
}

type passSlice struct {
	n           int
	wallS, cpuS float64
	// peakRSS is the resident-set high-water mark within the slice.
	peakRSS float64
}

const passSlices = 10

func rusage() (cpuS float64, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

// peakRSSMiB is this process image's resident-set high-water mark,
// VmHWM. ru_maxrss is not used when VmHWM can be read: it survives exec,
// so it is never below the peak of whatever launched the benchmark.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kib float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kib); err == nil {
				return kib / 1024
			}
		}
	}
	_, kib := rusage()
	return float64(kib) / 1024
}

// restartPeakRSS restarts the VmHWM high-water mark from the current
// resident set. Where the kernel does not allow it the mark simply
// keeps everything since exec.
func restartPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// resetPeakRSS returns freed memory to the OS and restarts the mark, so
// that what follows is not charged the calibration loop's garbage or
// the set-ups torn down before.
func resetPeakRSS() {
	debug.FreeOSMemory()
	restartPeakRSS()
}

// tailPct is the percentile behind interval_p90_ms. p95 was measured
// too: on the shared 2-core box its run-to-run spread on flat-learn-128
// reached 0.30 (the widest bound a metric may carry is 0.25) where p90
// stayed at half that; p90 still lies well inside the expensive mode of
// both bimodal workloads (assign intervals, re-planning seconds).
const tailPct = 90

// tailSlices is how many consecutive, equally long slices quietTail
// cuts a pass into.
const tailSlices = 20

// minSliceIntervals is the fewest intervals a slice may hold for its
// p90 to be a tail at all: the rank below its slowest interval.
const minSliceIntervals = 10

// quietTail is the tail latency the benchmark gates on. ms, in
// measured order, is cut into tailSlices slices; each slice's
// nearest-rank tailPct-th percentile is taken, and the lower quartile
// of those is returned. A whole-pass p90 sits wherever the host's
// slowest tenth of the run put it: on the shared box bursts of a second
// or two, landing in some runs and not in others, spread it over 15–30 %
// between runs of one binary while the median moved by 3–10 %. Bursts
// fill a few slices; the lower quartile reads the slices they missed,
// and still lies in the expensive mode of the bimodal workloads because
// every slice holds both modes. ok is false when the pass is too short
// to slice.
func quietTail(ms []float64) (v float64, ok bool) {
	n := len(ms)
	if n < tailSlices*minSliceIntervals {
		return 0, false
	}
	tails := make([]float64, tailSlices)
	for j := range tails {
		tails[j], _ = percentile(sortedCopy(ms[j*n/tailSlices:(j+1)*n/tailSlices]), tailPct)
	}
	sort.Float64s(tails)
	v, _ = percentile(tails, 25)
	return v, true
}

// minTimedIntervals is how many intervals a time-bounded pass measures
// at least, running past its deadline if it must: enough for quietTail
// to slice, and twice what a whole-pass p90 needs to keep ten samples
// beyond it.
const minTimedIntervals = 220

// measure extends pass p by driving w until the deadline (intervals ==
// 0; at least until p holds atLeast intervals) or for a fixed number of
// further intervals. Interval numbers continue from p.attempted, so a
// pass may be measured in several slices. One driver goroutine, closed
// loop: interval i+1 starts when interval i has returned and been
// checked. A step error aborts the pass — the fleet is in an unknown
// state after it.
func measure(ctx context.Context, w workload, p *pass, seconds float64, intervals, atLeast int, tr *spanRec) error {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0, alloc0 := ms.Mallocs, ms.TotalAlloc
	cpu0, _ := rusage()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	defer func() {
		p.wallS += time.Since(start).Seconds()
		cpu1, _ := rusage()
		runtime.ReadMemStats(&ms)
		p.cpuS += cpu1 - cpu0
		p.mallocs += ms.Mallocs - mallocs0
		p.allocB += ms.TotalAlloc - alloc0
	}()
	// The pass is also cut into about passSlices slices, by time or by
	// count, each with its own wall and CPU reading.
	sliceDur := time.Duration(seconds / passSlices * float64(time.Second))
	sliceIv := max(intervals/passSlices, 1)
	sliceFrom, sliceT, sliceCPU := p.attempted, start, cpu0
	for i, end := p.attempted, p.attempted+intervals; ; i++ {
		now := time.Now()
		if (intervals > 0 && i-sliceFrom == sliceIv) || (intervals == 0 && i > sliceFrom && now.Sub(sliceT) >= sliceDur) {
			cpu, _ := rusage()
			p.slices = append(p.slices, passSlice{i - sliceFrom, now.Sub(sliceT).Seconds(), cpu - sliceCPU, peakRSSMiB()})
			restartPeakRSS()
			sliceFrom, sliceT, sliceCPU = i, now, cpu
		}
		if intervals > 0 {
			if i >= end {
				break
			}
		} else if i >= atLeast && !now.Before(deadline) {
			break
		}
		if err := w.prepare(i); err != nil {
			return fmt.Errorf("interval %d inputs: %w", i, err)
		}
		id := tr.beginInterval()
		t0 := time.Now()
		err := w.step(ctx, i)
		t1 := time.Now()
		tr.emit(id, "interval", layerBench, tidDriver, i, 0, t0, t1)
		p.ms = append(p.ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
		p.attempted++
		if err != nil {
			p.failed++
			p.firstFail = fmt.Sprintf("interval %d: %v", i, err)
			return fmt.Errorf("interval %d: %w", i, err)
		}
		if err := w.check(i); err != nil {
			p.failed++
			if p.firstFail == "" {
				p.firstFail = fmt.Sprintf("interval %d: %v", i, err)
			}
		}
	}
	return nil
}

// metric is one named, unit-carrying number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// tailReading is how the interval_p90_ms row was read: sliced by
// quietTail or, on a pass too short for that, as the highest whole-pass
// percentile pct (at most tailPct) with ten samples beyond it. wholeMs
// is that whole-pass percentile either way, for the printed report.
type tailReading struct {
	Sliced  bool    `json:"sliced"`
	Pct     float64 `json:"percentile"`
	WholeMs float64 `json:"whole_pass_ms"`
}

// endToEnd turns an untraced pass into the end-to-end metric rows.
// setupS is the median set-up time.
func endToEnd(p pass, o outcome, setupS, peakRSS float64) ([]metric, tailReading) {
	sorted := sortedCopy(p.ms)
	p50, _ := percentile(sorted, 50)
	tail, tailP := tailPercentile(sorted, tailPct)
	how := tailReading{Pct: tailP, WholeMs: tail}
	if v, ok := quietTail(p.ms); ok {
		tail, how.Sliced = v, true
	}
	n := float64(p.attempted)
	perS, cpuMs := n/p.wallS, p.cpuS*1e3/n
	var rates, cpus, peaks []float64
	for _, s := range p.slices {
		// A slice shorter than this is below the CPU clock's resolution
		// (short fixed-count passes); the whole-pass figures stand then.
		if s.wallS >= 0.2 {
			rates = append(rates, float64(s.n)/s.wallS)
			cpus = append(cpus, s.cpuS*1e3/float64(s.n))
			peaks = append(peaks, s.peakRSS)
		}
	}
	if len(rates) >= passSlices/2 {
		perS, cpuMs, peakRSS = median(rates), median(cpus), median(peaks)
	}
	return []metric{
		{"interval_p50_ms", p50, "ms"},
		{"interval_p90_ms", tail, "ms"},
		{"intervals_per_s", perS, "1/s"},
		{"cpu_ms_per_interval", cpuMs, "ms"},
		{"allocs_per_interval", float64(p.mallocs) / n, "count"},
		{"alloc_kb_per_interval", float64(p.allocB) / 1024 / n, "KiB"},
		{"peak_rss_mb", peakRSS, "MiB"},
		{"setup_s", setupS, "s"},
		{"perf_frac", o.perfFrac, "ratio"},
	}, how
}

// calibLoop is the noise guard's fixed CPU loop: the full apportioning
// DP over 128 fixed curves, five times, after one untimed pass. It is
// only ever compared with itself (before vs after a workload); results
// are never normalized by it.
func calibLoop(smoke bool) float64 {
	curves := make([][]cluster.CapPoint, 128)
	for i := range curves {
		curves[i] = saturatingCurve(50, 130, 25+float64((i*13)%50))
	}
	cluster.ApportionCurves(128*88, 50, curves)
	rounds := calibRounds
	if smoke {
		rounds = 1
	}
	var ms []float64
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		for j := 0; j < 5; j++ {
			cluster.ApportionCurves(128*88, 50, curves)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms)
}

// calibRounds of the ×5 loop are timed and their median reported: on a
// shared host a single round swings by half its value from one moment
// to the next.
const calibRounds = 5

// noisy reports whether the two calibration readings disagree by more
// than a tenth.
func noisy(before, after float64) bool {
	lo, hi := math.Min(before, after), math.Max(before, after)
	return lo <= 0 || (hi-lo)/lo > 0.10
}

// saturatingCurve samples perf(c) = (1-exp(-c/tau))/norm on the 2 W
// grid from floorW to nameplateW — the DP bench's curve family.
func saturatingCurve(floorW, nameplateW, tau float64) []cluster.CapPoint {
	norm := 1 - math.Exp(-nameplateW/tau)
	var pts []cluster.CapPoint
	for c := floorW; c <= nameplateW+1e-9; c += cluster.ServerCapStepW {
		pts = append(pts, cluster.CapPoint{CapW: c, Perf: (1 - math.Exp(-c/tau)) / norm, GridW: c})
	}
	return pts
}

// digest is an FNV-1a accumulator over the numbers a run consumed or
// produced, so two commits can prove they ran the same work.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = d.h.Write(b[:]) // hash.Hash writes never fail
}
func (d digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d digest) str(s string)  { _, _ = d.h.Write([]byte(s)); d.u64(uint64(len(s))) }
func (d digest) sum() uint64   { return d.h.Sum64() }

// settleTracker measures cap_settle_iv: the longest run of consecutive
// intervals in which the enforced caps summed above the cap in force.
type settleTracker struct {
	run, max int
}

// capEps absorbs float accumulation across a fleet-wide sum.
const capEps = 1e-6

// note records one interval and returns the current over-cap run.
func (s *settleTracker) note(sumCapsW, capW float64) int {
	if sumCapsW > capW+capEps {
		s.run++
		if s.run > s.max {
			s.max = s.run
		}
	} else {
		s.run = 0
	}
	return s.run
}
