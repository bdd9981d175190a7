// Package kernels provides runnable Go implementations of the two
// applications whose model shapes bound the paper's power struggle:
// STREAM (the memory-bound end) and MineBench-style k-means (the
// compute-bound end). Each kernel emits Application Heartbeats per unit
// of useful work, as the paper's prototype did on the originals.
//
// The analytic models in internal/workload stand in for these kernels on
// the simulated platform; nothing on the mediation path runs them. They
// are kept as host evidence for those models' shapes (ROADMAP item 10):
// STREAM triad and k-means throughput, measured with cmd/pskernels.
package kernels

import (
	"fmt"
	"sort"
	"time"

	"powerstruggle/internal/heartbeat"
)

// Runner is a runnable, heartbeat-instrumented benchmark. Run executes
// one bounded unit of the benchmark (a few hundred milliseconds at
// default sizes), emitting heartbeats to hb under the registered name.
type Runner struct {
	// Name matches the paper application the kernel stands for.
	Name string
	// Description says what the kernel computes.
	Description string
	// Run executes the kernel; beats receives heartbeat counts as work
	// completes.
	Run func(beats func(count float64)) error
}

// Size scales the default kernel inputs.
type Size struct {
	// Points is the k-means population.
	Points int
	// StreamN is the STREAM array length.
	StreamN int
	// Seed drives all deterministic input generation.
	Seed int64
}

// DefaultSize returns inputs sized for sub-second single-shot runs.
func DefaultSize() Size {
	return Size{Points: 20000, StreamN: 1 << 20, Seed: 42}
}

// Registry builds the runnable kernels at the given size.
func Registry(sz Size) map[string]*Runner {
	return map[string]*Runner{
		"kmeans": {
			Name:        "kmeans",
			Description: "Lloyd's k-means on Gaussian clusters",
			Run: func(beats func(float64)) error {
				pts := GaussianClusters(sz.Points, 16, 8, 0.6, sz.Seed)
				_, _, err := KMeans(pts, 16, 25, sz.Seed, func(int) { beats(1) })
				return err
			},
		},
		"STREAM": {
			Name:        "STREAM",
			Description: "STREAM copy/scale/add/triad bandwidth kernels",
			Run: func(beats func(float64)) error {
				clock := func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
				_, err := Stream(sz.StreamN, 5, clock, func() { beats(1) })
				return err
			},
		},
	}
}

// Names lists the registered kernels in sorted order.
func Names(reg map[string]*Runner) []string {
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RunWithHeartbeats executes a named kernel once, feeding its beats into
// a heartbeat monitor under the kernel's name with timestamps from the
// wall clock, and returns the total beat count.
func RunWithHeartbeats(reg map[string]*Runner, name string, hb *heartbeat.Monitor) (float64, error) {
	r, ok := reg[name]
	if !ok {
		return 0, fmt.Errorf("kernels: unknown kernel %q", name)
	}
	if err := hb.Register(name, 10); err != nil {
		return 0, err
	}
	start := time.Now()
	var total float64
	err := r.Run(func(count float64) {
		total += count
		t := time.Since(start).Seconds()
		_ = hb.Beat(name, t, count)
	})
	return total, err
}
