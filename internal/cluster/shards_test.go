package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randShard is one shard of TestApportionShardsMatchesReference's kind:
// 1–6 members of mixed curve shapes on a floor of 30–48 W, rolled up and
// thinned to anything from two points to a few dozen, or (one in five)
// curveless.
func randShard(rng *rand.Rand) ShardCurve {
	floorW := 30 + float64(rng.Intn(10))*2
	members := 1 + rng.Intn(6)
	s := ShardCurve{FloorW: floorW * float64(members)}
	if rng.Intn(5) == 0 {
		return s
	}
	curves := make([][]CapPoint, members)
	for m := range curves {
		switch rng.Intn(4) {
		case 0:
			curves[m] = stepCurve(rng, floorW)
		case 1:
			curves[m] = wildCurve(rng, floorW)
		default:
			curves[m] = randCurve(rng, floorW)
		}
	}
	s.Points = DownsampleCurve(RollupCurves(floorW, curves), 2+rng.Intn(42))
	return s
}

// shardBounds returns the shards' summed floors and saturation caps.
func shardBounds(shards []ShardCurve) (floorSum, satSum float64) {
	for _, s := range shards {
		if len(s.Points) == 0 || len(s.Points) > maxCurvePoints {
			floorSum += s.FloorW
			satSum += s.FloorW
			continue
		}
		floorSum += s.Points[0].CapW
		satSum += s.Points[len(s.Points)-1].CapW
	}
	return floorSum, satSum
}

// checkShardsReference holds one Shards read to referenceApportionShards
// on the 2 W grid (a maxLevels no spare can exceed), with overlong
// shards set curveless, as Shards treats them.
func checkShardsReference(t *testing.T, what string, a *Apportioner, capW float64, shards []ShardCurve) {
	t.Helper()
	gotB, gotP := a.Shards(capW, shards)
	ref := append([]ShardCurve(nil), shards...)
	for i := range ref {
		if len(ref[i].Points) > maxCurvePoints {
			ref[i].Points = nil
		}
	}
	wantB, wantP := referenceApportionShards(capW, ref, math.MaxInt32)
	if gotP != wantP {
		t.Fatalf("%s cap %v: perf %v, reference %v", what, capW, gotP, wantP)
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("%s cap %v: shard %d budget %v, reference %v", what, capW, i, gotB[i], wantB[i])
		}
	}
	if s := sum(gotB); s > capW+1e-6 {
		t.Fatalf("%s cap %v: budgets sum to %v", what, capW, s)
	}
}

// TestApportionerShardsMatchesReference drives one Apportioner's Shards
// reader through the access pattern the global generates and holds every
// read to the 2 W reference sweep bit for bit: the cap moving up and
// down from below the floors to past saturation, one rollup changing
// (to caps off the grid, too, which the costs round up), shards
// expiring and being readmitted, shards going curveless or overlong and
// back.
func TestApportionerShardsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	long := make([]CapPoint, maxCurvePoints+1)
	for k := range long {
		long[k] = CapPoint{CapW: 40 + float64(k)*ServerCapStepW, Perf: float64(k), GridW: 40}
	}
	for trial := 0; trial < 40; trial++ {
		pool := make([]ShardCurve, 1+rng.Intn(7))
		for i := range pool {
			pool[i] = randShard(rng)
		}
		live := append([]ShardCurve(nil), pool...)
		var a Apportioner
		for step := 0; step < 30; step++ {
			op := "cap"
			switch r := rng.Intn(10); {
			case r < 2 && len(live) > 0:
				op = "change"
				live[rng.Intn(len(live))] = randShard(rng)
			case r == 2 && len(live) > 1:
				op = "expire"
				i := rng.Intn(len(live))
				live = append(live[:i], live[i+1:]...)
			case r == 3 && len(live) < len(pool):
				op = "readmit"
				i := rng.Intn(len(live) + 1)
				live = append(live[:i], append([]ShardCurve{pool[rng.Intn(len(pool))]}, live[i:]...)...)
			case r == 4 && len(live) > 0:
				op = "overlong"
				live[rng.Intn(len(live))].Points = long
			case r == 5 && len(live) > 0:
				op = "off-grid"
				i := rng.Intn(len(live))
				pts := append([]CapPoint(nil), live[i].Points...)
				for k := range pts {
					pts[k].CapW += 1.9 * rng.Float64()
				}
				live[i].Points = pts
			}
			floorSum, satSum := shardBounds(live)
			caps := []float64{
				floorSum * (0.8 + 0.2*rng.Float64()),
				floorSum + rng.Float64()*(satSum-floorSum),
				floorSum + rng.Float64()*(satSum-floorSum),
				satSum + 1,
				satSum*1.3 + 40*float64(rng.Intn(20)),
			}
			for c := 0; c < 2; c++ {
				checkShardsReference(t, fmt.Sprintf("trial %d step %d (%s)", trial, step, op), &a, caps[rng.Intn(len(caps))], live)
			}
		}
	}
}

// TestApportionerShardsRebuildCounts pins what a Shards read rebuilds:
// nothing when only the cap moved, whichever way and however far; the
// layers from a changed rollup's position on when one changed; the
// layers from a shard's position on when it expires, is readmitted, or
// goes curveless.
func TestApportionerShardsRebuildCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 8
	shards := make([]ShardCurve, n)
	for i := range shards {
		curves := make([][]CapPoint, 20)
		for m := range curves {
			curves[m] = clippedCurve(rng, 40)
		}
		shards[i] = ShardCurve{FloorW: 800, Points: DownsampleCurve(RollupCurves(40, curves), 64)}
	}
	floorSum, satSum := shardBounds(shards)
	mid := (floorSum + satSum) / 2
	var a Apportioner
	read := func(what string, capW float64, want int) {
		t.Helper()
		checkShardsReference(t, what, &a, capW, shards)
		if got := a.LastRecomputed(); got != want {
			t.Fatalf("%s at cap %v: rebuilt %d layers, want %d", what, capW, got, want)
		}
	}
	read("cold read", mid, n)
	for _, capW := range []float64{mid + 3, mid - 7, floorSum + 1, satSum + 5, satSum * 2, floorSum / 2, mid + 1} {
		read("cap move", capW, 0)
	}
	for _, j := range []int{5, 0, 7} {
		old := shards[j].Points
		shards[j].Points = append([]CapPoint(nil), old...)
		shards[j].Points[len(old)/2].Perf += 0.5
		read(fmt.Sprintf("rollup %d changed", j), mid, n-j)
		read("cap move", mid-11, 0)
		shards[j].Points = old
		read(fmt.Sprintf("rollup %d restored", j), mid-11, n-j)
	}
	gone := shards[3]
	shards = append(shards[:3], shards[4:]...)
	read("shard 3 expired", mid-50, n-1-3)
	shards = append(shards[:3], append([]ShardCurve{gone}, shards[3:]...)...)
	read("shard 3 readmitted", mid, n-3)
	pts := shards[6].Points
	shards[6].Points = nil
	read("shard 6 curveless", mid, n-1-6)
	shards[6].Points = pts
	read("shard 6 back", mid, n-6)
	read("cap move", mid+20, 0)
}

// TestApportionerShardsAllocs is the counted gate on the global's cap
// move: once warm, a read whose rollups did not change allocates the
// returned budgets and nothing else. It skips itself under the race
// detector, whose shadow allocations are not the reader's.
func TestApportionerShardsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the product's")
	}
	shards := benchShards(rand.New(rand.NewSource(8)))
	var a Apportioner
	capW := func(i int) float64 { return benchShardCapW - 4*float64(i%7) }
	for i := 0; i < 7; i++ {
		a.Shards(capW(i), shards)
	}
	i := 0
	objects := testing.AllocsPerRun(200, func() {
		a.Shards(capW(i), shards)
		i++
	})
	if objects != 1 {
		t.Errorf("a cap-only Shards read allocates %.1f objects, want 1 (the budgets)", objects)
	}
}

// clippedCurve is a demand-clipped member curve, as the tree's members
// report theirs: nine points on the 2 W grid from floorW, perf rising at
// the member's own rate up to its demand, drawn across the band, and
// flat past it.
func clippedCurve(rng *rand.Rand, floorW float64) []CapPoint {
	demandW := floorW + 16*rng.Float64()
	perW := (1 + rng.Float64()) / 16
	out := make([]CapPoint, 9)
	for k := range out {
		w := floorW + float64(k)*ServerCapStepW
		out[k] = CapPoint{CapW: w, Perf: (min(w, demandW) - floorW) * perW, GridW: min(w, demandW)}
	}
	return out
}

// treePerf is what the budget tree delivers when budgets reach the
// shards: each shard's members apportioned at its budget, as its own
// coordinator does, Σperf over the fleet.
func treePerf(budgets []float64, floorW float64, fleet [][][]CapPoint) float64 {
	total := 0.0
	for s, curves := range fleet {
		_, perf, _ := new(Apportioner).Apportion(budgets[s], floorW, curves)
		total += perf
	}
	return total
}

// TestShardSplitMatchesFlatDP is the two-tier tree's quality evidence:
// the global's read over the shards' rollups, then each shard's own
// split at its budget, against the flat DP over every member at once.
// Over random demand-clipped fleets and caps from below the floors
// through binding to saturated:
//
//   - with un-thinned rollups the tree is the flat DP split in two,
//     so its Σperf equals the flat one's up to float association;
//   - with rollups thinned to 256 points, as the trunk carries them,
//     it stays within thinnedBound of it.
//
// Member floors of 45 and 45.5 W put a shard's floor sum off the 2 W
// grid (odd or fractional), as tree-1k-8's 125 × 45 W shards are: its
// budget, the floors plus whole 2 W steps, must still buy the levels
// its rollup priced. At 1 000 members the spare watts exceed
// DefaultShardLevels, and ApportionShards' coarse grid misses the
// un-thinned equality.
func TestShardSplitMatchesFlatDP(t *testing.T) {
	const thinnedBound = 0.9997
	floorW := 40.0
	rng := rand.New(rand.NewSource(1700))
	worst := 1.0
	check := func(what string, fleet [][][]CapPoint, fine, thin []ShardCurve, capW float64) {
		t.Helper()
		var all [][]CapPoint
		for _, curves := range fleet {
			all = append(all, curves...)
		}
		_, flat, _ := ApportionCurves(capW, floorW, all)
		var a Apportioner
		budgets, _ := a.Shards(capW, fine)
		if got := treePerf(budgets, floorW, fleet); math.Abs(got-flat) > 1e-9*max(1, math.Abs(flat)) {
			t.Fatalf("%s cap %v: tree delivers Σperf %v, flat DP %v", what, capW, got, flat)
		}
		budgets, _ = a.Shards(capW, thin)
		got := treePerf(budgets, floorW, fleet)
		if flat == 0 {
			if got != 0 {
				t.Fatalf("%s cap %v: thinned tree delivers %v where the flat DP delivers 0", what, capW, got)
			}
			return
		}
		worst = min(worst, got/flat)
		if got < thinnedBound*flat || got > flat*(1+1e-9) {
			t.Fatalf("%s cap %v: thinned tree delivers Σperf %v, %.6f of the flat DP's %v", what, capW, got, got/flat, flat)
		}
	}
	build := func(shards int, members func() int) (fleet [][][]CapPoint, fine, thin []ShardCurve, floorSum, satSum float64) {
		for s := 0; s < shards; s++ {
			curves := make([][]CapPoint, members())
			for m := range curves {
				curves[m] = clippedCurve(rng, floorW)
			}
			roll := RollupCurves(floorW, curves)
			fleet = append(fleet, curves)
			fine = append(fine, ShardCurve{FloorW: floorW * float64(len(curves)), Points: roll})
			thin = append(thin, ShardCurve{FloorW: floorW * float64(len(curves)), Points: DownsampleCurve(roll, 256)})
			floorSum += roll[0].CapW
			satSum += roll[len(roll)-1].CapW
		}
		return fleet, fine, thin, floorSum, satSum
	}
	for trial := 0; trial < 30; trial++ {
		floorW = []float64{40, 45, 45.5}[trial%3]
		fleet, fine, thin, floorSum, satSum := build(1+rng.Intn(8), func() int { return 1 + rng.Intn(60) })
		for _, capW := range []float64{
			floorSum * 0.9, // the floors do not fit
			floorSum + 3,   // floor-bound
			floorSum + rng.Float64()*(satSum-floorSum),
			floorSum + rng.Float64()*(satSum-floorSum),
			satSum - 5,
			satSum + 50, // saturated
		} {
			check(fmt.Sprintf("trial %d", trial), fleet, fine, thin, capW)
		}
	}

	// The tree-1k-8 shape: 8 × 125 members at 45 W, ~4 000 spare levels
	// at a binding cap.
	floorW = 45
	fleet, fine, thin, floorSum, satSum := build(8, func() int { return 125 })
	capW := floorSum + 0.5*(satSum-floorSum)
	check("1 000 members", fleet, fine, thin, capW)
	var all [][]CapPoint
	for _, curves := range fleet {
		all = append(all, curves...)
	}
	_, flat, _ := ApportionCurves(capW, floorW, all)
	coarse, _ := ApportionShards(capW, fine, 0)
	if got := treePerf(coarse, floorW, fleet); math.Abs(got-flat) <= 1e-9*flat {
		t.Fatalf("the coarse grid's tree delivers Σperf %v, the flat DP's %v: it was expected to miss", got, flat)
	} else {
		t.Logf("at 1 000 members the coarse grid delivers %.6f of the flat DP; thinned 2 W rollups at worst %.6f", got/flat, worst)
	}
}

// benchShardCapW is the tree-1k-8 global's cap: 1 000 members at 52 W,
// less the grant slack.
const benchShardCapW = 8 * 125 * 52 * 0.98

// benchShards is the tree-1k-8 global's input: eight shards of 125
// nine-point members, each rolled up and thinned to 256 points.
func benchShards(rng *rand.Rand) []ShardCurve {
	shards := make([]ShardCurve, 8)
	for s := range shards {
		curves := make([][]CapPoint, 125)
		for m := range curves {
			curves[m] = lineCurve(45, 9, 0.01+0.01*rng.Float64())
		}
		shards[s] = ShardCurve{FloorW: 45 * 125, Points: DownsampleCurve(RollupCurves(45, curves), 256)}
	}
	return shards
}

// BenchmarkApportionerShards is the global's read at the tree-1k-8
// shape, the cap moving 2–12 W every call: cap-only changes no rollup,
// one-dirty changes the middle shard's before every call, all-dirty
// every shard's. layers/op is the mean layers rebuilt per call.
func BenchmarkApportionerShards(b *testing.B) {
	for _, bc := range []struct {
		name  string
		dirty []int
	}{{"cap-only", nil}, {"one-dirty", []int{4}}, {"all-dirty", []int{0, 1, 2, 3, 4, 5, 6, 7}}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			shards := benchShards(rng)
			alt := benchShards(rng)
			var a Apportioner
			layers := 0
			call := func(i int) {
				for _, s := range bc.dirty {
					shards[s], alt[s] = alt[s], shards[s]
				}
				a.Shards(benchShardCapW-2*float64(i%6), shards)
				layers += a.LastRecomputed()
			}
			for i := 0; i < 6; i++ {
				call(i)
			}
			layers = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(i)
			}
			b.ReportMetric(float64(layers)/float64(b.N), "layers/op")
		})
	}
}
