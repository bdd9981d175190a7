package kernels

import (
	"fmt"
	"math"
	"math/rand"
)

// KMeans runs Lloyd's algorithm on dim-dimensional points for at most
// iters iterations (or until assignments stabilize) and returns the
// final centroids and assignments. onIter reports each iteration's
// number of reassignments — the kernel's heartbeat hook.
func KMeans(points [][]float64, k, iters int, seed int64, onIter func(moved int)) ([][]float64, []int, error) {
	n := len(points)
	if n == 0 || k <= 0 || k > n {
		return nil, nil, fmt.Errorf("kernels: kmeans with %d points and k=%d", n, k)
	}
	dim := len(points[0])
	rng := rand.New(rand.NewSource(seed))
	cent := make([][]float64, k)
	for i, idx := range rng.Perm(n)[:k] {
		cent[i] = append([]float64(nil), points[idx]...)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	for it := 0; it < iters; it++ {
		moved := 0
		for i := range counts {
			counts[i] = 0
			for d := range sums[i] {
				sums[i][d] = 0
			}
		}
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
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
			if assign[i] != best {
				assign[i] = best
				moved++
			}
			counts[best]++
			for j := range p {
				sums[best][j] += p[j]
			}
		}
		for c := range cent {
			if counts[c] == 0 {
				continue
			}
			for j := range cent[c] {
				cent[c][j] = sums[c][j] / float64(counts[c])
			}
		}
		if onIter != nil {
			onIter(moved)
		}
		if moved == 0 {
			break
		}
	}
	return cent, assign, nil
}

// GaussianClusters generates n points around k Gaussian blobs in dim
// dimensions, a standard k-means input.
func GaussianClusters(n, k, dim int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for d := range centers[i] {
			centers[i][d] = rng.Float64() * 10
		}
	}
	points := make([][]float64, n)
	for i := range points {
		c := centers[rng.Intn(k)]
		p := make([]float64, dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*spread
		}
		points[i] = p
	}
	return points
}

// StreamResult carries the measured STREAM kernel bandwidths.
type StreamResult struct {
	// CopyGBs, ScaleGBs, AddGBs and TriadGBs are the classic four
	// kernels' effective bandwidths in gigabytes per second.
	CopyGBs, ScaleGBs, AddGBs, TriadGBs float64
	// Check is a value-dependent checksum preventing dead-code
	// elimination of the kernels.
	Check float64
}

// Stream runs the four STREAM kernels over float64 arrays of n elements
// for reps repetitions, timing with the caller's clock function (seconds)
// and reporting a heartbeat per repetition through onRep.
func Stream(n, reps int, clock func() float64, onRep func()) (StreamResult, error) {
	if n <= 0 || reps <= 0 {
		return StreamResult{}, fmt.Errorf("kernels: stream with n=%d reps=%d", n, reps)
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
		c[i] = 0
	}
	const scalar = 3.0
	bytesMoved := func(arrays int) float64 { return float64(arrays) * float64(n) * 8 }
	var res StreamResult
	var tCopy, tScale, tAdd, tTriad float64
	for r := 0; r < reps; r++ {
		t0 := clock()
		copy(c, a)
		t1 := clock()
		for i := range b {
			b[i] = scalar * c[i]
		}
		t2 := clock()
		for i := range c {
			c[i] = a[i] + b[i]
		}
		t3 := clock()
		for i := range a {
			a[i] = b[i] + scalar*c[i]
		}
		t4 := clock()
		tCopy += t1 - t0
		tScale += t2 - t1
		tAdd += t3 - t2
		tTriad += t4 - t3
		if onRep != nil {
			onRep()
		}
	}
	if tCopy > 0 {
		res.CopyGBs = bytesMoved(2) * float64(reps) / tCopy / 1e9
	}
	if tScale > 0 {
		res.ScaleGBs = bytesMoved(2) * float64(reps) / tScale / 1e9
	}
	if tAdd > 0 {
		res.AddGBs = bytesMoved(3) * float64(reps) / tAdd / 1e9
	}
	if tTriad > 0 {
		res.TriadGBs = bytesMoved(3) * float64(reps) / tTriad / 1e9
	}
	res.Check = a[0] + b[n/2] + c[n-1]
	return res, nil
}
