package kernels

import (
	"math"
	"testing"
	"time"

	"powerstruggle/internal/heartbeat"
)

func TestKMeansConvergesOnSeparatedClusters(t *testing.T) {
	pts := GaussianClusters(2000, 4, 3, 0.05, 1)
	var iters, lastMoved int
	cent, assign, err := KMeans(pts, 4, 50, 1, func(moved int) {
		iters++
		lastMoved = moved
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastMoved != 0 {
		t.Errorf("did not converge in 50 iterations (last pass moved %d)", lastMoved)
	}
	if iters == 0 || iters == 50 {
		t.Errorf("suspicious iteration count %d", iters)
	}
	if len(cent) != 4 || len(assign) != 2000 {
		t.Fatalf("shape: %d centroids, %d assignments", len(cent), len(assign))
	}
	for i, a := range assign {
		if a < 0 || a >= 4 {
			t.Fatalf("point %d assigned to %d", i, a)
		}
	}
	// Every point must be nearest its own centroid (Lloyd's invariant
	// at convergence).
	for i, p := range pts {
		best, bestD := -1, math.Inf(1)
		for c := range cent {
			var d float64
			for j := range p {
				diff := p[j] - cent[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best != assign[i] {
			t.Fatalf("point %d assigned to %d but nearest %d", i, assign[i], best)
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	if _, _, err := KMeans(nil, 3, 10, 1, nil); err == nil {
		t.Error("empty input accepted")
	}
	pts := GaussianClusters(10, 2, 2, 1, 1)
	if _, _, err := KMeans(pts, 0, 10, 1, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := KMeans(pts, 11, 10, 1, nil); err == nil {
		t.Error("k > n accepted")
	}
}

func TestStreamKernels(t *testing.T) {
	clock := func() float64 { return float64(time.Now().UnixNano()) / 1e9 }
	var reps int
	res, err := Stream(1<<16, 3, clock, func() { reps++ })
	if err != nil {
		t.Fatal(err)
	}
	if reps != 3 {
		t.Errorf("%d rep beats, want 3", reps)
	}
	for name, bw := range map[string]float64{
		"copy": res.CopyGBs, "scale": res.ScaleGBs, "add": res.AddGBs, "triad": res.TriadGBs,
	} {
		if bw <= 0 {
			t.Errorf("%s bandwidth %g", name, bw)
		}
	}
	// The arithmetic is fixed: a = b + 3c with the chain of updates is
	// deterministic, so the checksum is stable across runs.
	res2, err := Stream(1<<16, 3, clock, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check != res2.Check {
		t.Errorf("checksums differ: %g vs %g", res.Check, res2.Check)
	}
	if _, err := Stream(0, 1, clock, nil); err == nil {
		t.Error("zero-length stream accepted")
	}
}

func TestRegistryRunsEveryPaperApplication(t *testing.T) {
	sz := DefaultSize()
	sz.Points = 4000 // keep the test fast
	sz.StreamN = 1 << 16
	reg := Registry(sz)
	if got := Names(reg); len(got) != 2 || got[0] != "STREAM" || got[1] != "kmeans" {
		t.Fatalf("registry has %v, want [STREAM kmeans]", got)
	}
	hb := heartbeat.NewMonitor()
	for _, name := range Names(reg) {
		total, err := RunWithHeartbeats(reg, name, hb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if total <= 0 {
			t.Errorf("%s delivered no heartbeats", name)
		}
		got, err := hb.Total(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != total {
			t.Errorf("%s: monitor total %g, runner total %g", name, got, total)
		}
	}
	if _, err := RunWithHeartbeats(reg, "nope", hb); err == nil {
		t.Error("unknown kernel accepted")
	}
}
