// Command pskernels runs the real, heartbeat-instrumented STREAM and
// k-means kernels on the host and reports their heartbeat totals and
// wall-clock rates — the measurement interface the simulated runtime's
// performance accounting mirrors.
//
// Usage:
//
//	pskernels [-kernel STREAM] [-points 20000] [-reps 3]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/heartbeat"
	"powerstruggle/internal/kernels"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pskernels: ")
	var (
		kernel = flag.String("kernel", "", "run only this kernel (default: all)")
		points = flag.Int("points", 20000, "k-means population")
		reps   = flag.Int("reps", 1, "repetitions per kernel")
	)
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	sz := kernels.DefaultSize()
	sz.Points = *points
	reg := kernels.Registry(sz)

	names := kernels.Names(reg)
	if *kernel != "" {
		if _, ok := reg[*kernel]; !ok {
			log.Fatalf("unknown kernel %q (have %v)", *kernel, names)
		}
		names = []string{*kernel}
	}

	fmt.Printf("%-14s %12s %12s %12s\n", "kernel", "beats", "seconds", "beats/s")
	for _, n := range names {
		var totalBeats, totalSecs float64
		for r := 0; r < *reps; r++ {
			hb := heartbeat.NewMonitor()
			start := time.Now()
			beats, err := kernels.RunWithHeartbeats(reg, n, hb)
			if err != nil {
				log.Fatalf("%s: %v", n, err)
			}
			totalBeats += beats
			totalSecs += time.Since(start).Seconds()
		}
		rate := 0.0
		if totalSecs > 0 {
			rate = totalBeats / totalSecs
		}
		fmt.Printf("%-14s %12.0f %12.3f %12.1f\n", n, totalBeats, totalSecs, rate)
	}
}
