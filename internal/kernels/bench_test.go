package kernels

import (
	"testing"
	"time"
)

// The kernel micro-benchmarks, at sizes matching DefaultSize's
// single-shot runs.

func BenchmarkKernelKMeans(b *testing.B) {
	pts := GaussianClusters(10000, 16, 8, 0.6, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KMeans(pts, 16, 10, 42, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelStreamTriad(b *testing.B) {
	clock := func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Stream(1<<20, 1, clock, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TriadGBs, "triadGB/s")
	}
}
