package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// lineCurve samples a linear utility curve from floorW upward: point k
// caps at floorW + k*ServerCapStepW and yields perf proportional to
// the watts above the floor, saturating at points points.
func lineCurve(floorW float64, points int, perfPerW float64) []CapPoint {
	out := make([]CapPoint, points)
	for k := range out {
		w := floorW + float64(k)*ServerCapStepW
		out[k] = CapPoint{CapW: w, Perf: float64(k) * ServerCapStepW * perfPerW, GridW: w}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// The rollup must agree with the flat DP: apportioning capW across the
// members directly and granting the shard capW against its rollup must
// deliver the same summed performance, because the rollup IS the flat
// DP's forward table.
func TestRollupMatchesFlatDP(t *testing.T) {
	floor := 40.0
	curves := [][]CapPoint{
		lineCurve(floor, 6, 0.010),
		lineCurve(floor, 9, 0.004),
		lineCurve(floor, 4, 0.020),
	}
	roll := RollupCurves(floor, curves)
	if roll == nil {
		t.Fatal("rollup of non-empty curves returned nil")
	}
	wantLevels := 1 + 5 + 8 + 3
	if len(roll) != wantLevels {
		t.Fatalf("rollup has %d points, want %d", len(roll), wantLevels)
	}
	if roll[0].CapW != floor*3 {
		t.Fatalf("rollup floor point caps at %g W, want %g", roll[0].CapW, floor*3)
	}
	for l := 0; l < len(roll); l++ {
		capW := roll[l].CapW
		_, flatPerf, _ := ApportionCurves(capW, floor, curves)
		if math.Abs(roll[l].Perf-flatPerf) > 1e-9 {
			t.Fatalf("rollup perf at %g W is %g, flat DP gives %g", capW, roll[l].Perf, flatPerf)
		}
		if l > 0 {
			if roll[l].CapW <= roll[l-1].CapW {
				t.Fatalf("rollup caps not strictly increasing at %d", l)
			}
			if roll[l].Perf < roll[l-1].Perf {
				t.Fatalf("rollup perf decreasing at %d", l)
			}
		}
	}
}

func TestRollupRejectsEmptyMemberCurve(t *testing.T) {
	if got := RollupCurves(40, nil); got != nil {
		t.Fatalf("rollup of no curves = %v, want nil", got)
	}
	curves := [][]CapPoint{lineCurve(40, 4, 0.01), nil}
	if got := RollupCurves(40, curves); got != nil {
		t.Fatalf("rollup with a curveless member = %v, want nil", got)
	}
}

func TestDownsampleCurveKeepsEndpoints(t *testing.T) {
	curve := lineCurve(40, 100, 0.01)
	thin := DownsampleCurve(curve, 8)
	if len(thin) != 8 {
		t.Fatalf("downsampled to %d points, want 8", len(thin))
	}
	if thin[0] != curve[0] || thin[len(thin)-1] != curve[len(curve)-1] {
		t.Fatal("downsample dropped an endpoint")
	}
	for i := 1; i < len(thin); i++ {
		if thin[i].CapW <= thin[i-1].CapW {
			t.Fatalf("downsampled caps not strictly increasing at %d", i)
		}
	}
	if got := DownsampleCurve(curve, 200); len(got) != len(curve) {
		t.Fatalf("downsample above length changed the curve: %d points", len(got))
	}
}

func TestApportionShardsRespectsCap(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 120, Points: lineCurve(40, 20, 0.010)}, // steep: wants the watts
		{FloorW: 120, Points: lineCurve(40, 20, 0.002)}, // shallow
		{FloorW: 120, Points: lineCurve(40, 20, 0.006)},
	}
	for _, capW := range []float64{121, 150, 200, 500} {
		budgets, perf := ApportionShards(capW, shards, 0)
		if got := sum(budgets); got > capW+1e-6 {
			t.Fatalf("cap %g: budgets sum to %g", capW, got)
		}
		if perf < 0 {
			t.Fatalf("cap %g: negative perf %g", capW, perf)
		}
	}
	// With spare watts, the steepest shard must out-earn the shallowest.
	budgets, _ := ApportionShards(200, shards, 0)
	if budgets[0] <= budgets[1] {
		t.Fatalf("steep shard got %g W, shallow got %g W", budgets[0], budgets[1])
	}
}

// A coarsened grid must still never exceed the cap, and must lose only
// resolution, not safety.
func TestApportionShardsCoarseGrid(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 40, Points: lineCurve(40, 200, 0.010)},
		{FloorW: 40, Points: lineCurve(40, 200, 0.004)},
		{FloorW: 40, Points: lineCurve(40, 200, 0.007)},
		{FloorW: 40, Points: lineCurve(40, 200, 0.001)},
	}
	capW := 900.0
	fine, finePerf := ApportionShards(capW, shards, 0)
	coarse, coarsePerf := ApportionShards(capW, shards, 16)
	if got := sum(coarse); got > capW+1e-6 {
		t.Fatalf("coarse budgets sum to %g over cap %g", got, capW)
	}
	if got := sum(fine); got > capW+1e-6 {
		t.Fatalf("fine budgets sum to %g over cap %g", got, capW)
	}
	if coarsePerf > finePerf+1e-9 {
		t.Fatalf("coarse grid outperforms fine grid: %g > %g", coarsePerf, finePerf)
	}
	// The coarse solve must still find most of the utility.
	if coarsePerf < 0.8*finePerf {
		t.Fatalf("coarse grid lost too much: %g vs %g", coarsePerf, finePerf)
	}
}

// Satellite edge case: a shard with an empty aggregate curve (its
// members are curveless live daemons) falls back to an even share of
// the cluster cap, exactly like the flat coordinator's curveless
// members.
func TestApportionShardsEmptyCurveEvenShare(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 40, Points: lineCurve(40, 10, 0.01)},
		{FloorW: 40, Points: nil}, // curveless daemons
		{FloorW: 40, Points: lineCurve(40, 10, 0.01)},
	}
	capW := 300.0
	budgets, _ := ApportionShards(capW, shards, 0)
	if want := capW / 3; math.Abs(budgets[1]-want) > 1e-9 {
		t.Fatalf("curveless shard got %g W, want even share %g", budgets[1], want)
	}
	if got := sum(budgets); got > capW+1e-6 {
		t.Fatalf("budgets sum to %g over cap %g", got, capW)
	}
	// All shards curveless: pure even split.
	all := []ShardCurve{{FloorW: 40}, {FloorW: 40}}
	budgets, perf := ApportionShards(100, all, 0)
	if budgets[0] != 50 || budgets[1] != 50 || perf != 0 {
		t.Fatalf("all-curveless split = %v (perf %g), want 50/50", budgets, perf)
	}
}

func TestApportionShardsBelowFloors(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 80, Points: lineCurve(80, 5, 0.01)},
		{FloorW: 40, Points: lineCurve(40, 5, 0.01)},
	}
	budgets, perf := ApportionShards(60, shards, 0)
	if perf != 0 {
		t.Fatalf("starved apportion claims perf %g", perf)
	}
	if got := sum(budgets); got > 60+1e-6 {
		t.Fatalf("starved budgets sum to %g over cap 60", got)
	}
	// Pro-rated by floor: shard 0 owes twice shard 1's floor.
	if math.Abs(budgets[0]-2*budgets[1]) > 1e-6 {
		t.Fatalf("starved split %v not floor-proportional", budgets)
	}
}

// Satellite edge case: all shards idle — nothing moves.
func TestRebalanceHeadroomAllIdle(t *testing.T) {
	budgets := []float64{100, 100, 100}
	used := []float64{40, 50, 45}
	demand := []float64{40, 50, 45}
	out, moved := RebalanceHeadroom(budgets, used, demand, 0.05)
	if moved != 0 {
		t.Fatalf("all-idle fleet moved %g W", moved)
	}
	for i := range out {
		if out[i] != budgets[i] {
			t.Fatalf("all-idle budgets changed: %v", out)
		}
	}
}

// Satellite edge case: one shard holds the entire cap and sits idle;
// its starved siblings must receive headroom the moment they ask.
func TestRebalanceHeadroomSingleHolder(t *testing.T) {
	budgets := []float64{300, 0, 0}
	used := []float64{60, 0, 0}
	demand := []float64{60, 80, 40}
	out, moved := RebalanceHeadroom(budgets, used, demand, 0.05)
	if moved <= 0 {
		t.Fatal("no headroom moved off the idle holder")
	}
	if math.Abs(sum(out)-sum(budgets)) > 1e-9 {
		t.Fatalf("rebalance changed the total: %g -> %g", sum(budgets), sum(out))
	}
	if out[0] < 60*1.05-1e-9 {
		t.Fatalf("donor cut below its guarded demand: %g W", out[0])
	}
	// Shortfalls are 80 and 40: receipts must be proportional.
	got1, got2 := out[1]-budgets[1], out[2]-budgets[2]
	if got1 <= 0 || got2 <= 0 {
		t.Fatalf("starved shards received %g and %g W", got1, got2)
	}
	if math.Abs(got1-2*got2) > 1e-9 {
		t.Fatalf("receipts %g and %g not proportional to need 80:40", got1, got2)
	}
}

func TestRebalanceHeadroomSaturatedReceiver(t *testing.T) {
	// Shard 1 is saturated (draw pinned at its budget, demand above);
	// shard 0 has slack. The transfer must flow 0 -> 1 within one call.
	budgets := []float64{150, 100}
	used := []float64{70, 100}
	demand := []float64{70, 160}
	out, moved := RebalanceHeadroom(budgets, used, demand, 0.05)
	if moved <= 0 {
		t.Fatal("saturated shard received nothing")
	}
	if out[1] <= budgets[1] {
		t.Fatalf("saturated shard budget went from %g to %g", budgets[1], out[1])
	}
	if out[0] >= budgets[0] {
		t.Fatalf("idle shard budget went from %g to %g", budgets[0], out[0])
	}
	if math.Abs(sum(out)-sum(budgets)) > 1e-9 {
		t.Fatalf("rebalance changed the total: %g -> %g", sum(budgets), sum(out))
	}
}

func TestRebalanceHeadroomMalformedInput(t *testing.T) {
	budgets := []float64{100, 100}
	out, moved := RebalanceHeadroom(budgets, []float64{1}, []float64{1, 2}, 0)
	if moved != 0 || out[0] != 100 || out[1] != 100 {
		t.Fatalf("mismatched slices moved watts: %v (%g)", out, moved)
	}
}

// referenceApportionShards is ApportionShards' DP as it first stood —
// every shard's layer swept over every level, costSteps called for every
// (level, point) pair, one int choice row per shard — retained as the
// oracle for budgets, tie-breaks and perf.
func referenceApportionShards(clusterCapW float64, shards []ShardCurve, maxLevels int) (budgets []float64, perf float64) {
	n := len(shards)
	budgets = make([]float64, n)
	if n == 0 || clusterCapW <= 0 {
		return budgets, 0
	}
	if maxLevels <= 0 {
		maxLevels = DefaultShardLevels
	}
	per := clusterCapW / float64(n)
	remainW := clusterCapW
	var curved []int
	for i, s := range shards {
		if len(s.Points) == 0 {
			budgets[i] = per
			remainW -= per
		} else {
			curved = append(curved, i)
		}
	}
	if len(curved) == 0 {
		return budgets, 0
	}
	var baseSum float64
	for _, i := range curved {
		baseSum += shards[i].Points[0].CapW
	}
	capQ := math.Floor(remainW/serverCapStepW) * serverCapStepW
	if capQ < baseSum {
		for _, i := range curved {
			if baseSum > 0 {
				budgets[i] = capQ * shards[i].Points[0].CapW / baseSum
			} else {
				budgets[i] = capQ / float64(len(curved))
			}
		}
		return budgets, 0
	}
	spare := capQ - baseSum
	stepW := serverCapStepW
	if int(spare/stepW)+1 > maxLevels {
		stepW = spare / float64(maxLevels-1)
	}
	levels := int(spare/stepW+1e-9) + 1
	best := make([]float64, levels)
	choice := make([][]int, len(curved))
	for j, i := range curved {
		pts := shards[i].Points
		choice[j] = make([]int, levels)
		next := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestK := math.Inf(-1), 0
			for k := range pts {
				cost := costSteps(pts[k].CapW-pts[0].CapW, stepW)
				if cost > l {
					break
				}
				if v := best[l-cost] + pts[k].Perf; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l] = bestV
			choice[j][l] = bestK
		}
		best = next
	}
	l := levels - 1
	for j := len(curved) - 1; j >= 0; j-- {
		i := curved[j]
		pts := shards[i].Points
		k := choice[j][l]
		budgets[i] = pts[k].CapW
		perf += pts[k].Perf
		l -= costSteps(pts[k].CapW-pts[0].CapW, stepW)
	}
	return budgets, perf
}

// TestApportionShardsMatchesReference holds ApportionShards — priced
// once per shard, computed over each shard's band of reachable levels,
// filled above its saturation level — to the retained full sweep bit for
// bit over random shard sets: rolled-up member curves (non-concave and
// non-monotone ones included) thinned to anything from two points to a
// few dozen (so caps sit off the coarse grid), one-point rollups,
// heterogeneous floors, curveless shards mixed in, caps from below the
// floors through binding to past every shard's saturation, and
// maxLevels from the finest 2 W grid down through every degree of
// coarsening to a two-level grid.
func TestApportionShardsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2048))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(7)
		shards := make([]ShardCurve, n)
		for i := range shards {
			shards[i] = randShard(rng)
		}
		floorSum, satSum := shardBounds(shards)
		natural := int((satSum-floorSum)/ServerCapStepW) + 1
		for _, capW := range []float64{
			floorSum * (0.8 + 0.2*rng.Float64()),       // below (or just at) the floors
			floorSum + rng.Float64()*(satSum-floorSum), // binding
			satSum + 1, // every shard just saturated
			satSum*1.3 + float64(n)*40*float64(rng.Intn(20)), // far past saturation
		} {
			for _, maxLevels := range []int{0, natural * 2, natural, natural - 1, 2 + rng.Intn(natural+1), 16, 3, 2} {
				gotB, gotP := ApportionShards(capW, shards, maxLevels)
				wantB, wantP := referenceApportionShards(capW, shards, maxLevels)
				if gotP != wantP {
					t.Fatalf("trial %d cap %v maxLevels %d: perf %v, reference %v", trial, capW, maxLevels, gotP, wantP)
				}
				for i := range wantB {
					if gotB[i] != wantB[i] {
						t.Fatalf("trial %d cap %v maxLevels %d: shard %d budget %v, reference %v", trial, capW, maxLevels, i, gotB[i], wantB[i])
					}
				}
			}
		}
	}
}

// A shard whose rollup is too long for the uint16 choice table is
// treated like a curveless one: an even share of the cap, the DP run
// over the others.
func TestApportionShardsOverlongCurveEvenShare(t *testing.T) {
	long := make([]CapPoint, maxCurvePoints+1)
	for k := range long {
		long[k] = CapPoint{CapW: 40 + float64(k)*ServerCapStepW, Perf: float64(k), GridW: 40}
	}
	others := []ShardCurve{
		{FloorW: 40, Points: lineCurve(40, 10, 0.01)},
		{FloorW: 40, Points: lineCurve(40, 10, 0.02)},
	}
	const capW = 300.0
	for _, c := range []struct {
		what   string
		points []CapPoint
		shared bool
	}{
		{"one point past the bound", long, true},
		{"longest indexable curve", long[:maxCurvePoints], false},
	} {
		shards := []ShardCurve{others[0], {FloorW: 40, Points: c.points}, others[1]}
		got, _ := ApportionShards(capW, shards, 0)
		shards[1].Points = nil
		curveless, _ := ApportionShards(capW, shards, 0)
		if same := got[0] == curveless[0] && got[1] == curveless[1] && got[2] == curveless[2]; same != c.shared {
			t.Fatalf("%s: budgets %v, with the shard curveless %v", c.what, got, curveless)
		}
		if c.shared && got[1] != capW/3 {
			t.Fatalf("%s: shard got %g W, want the even share %g", c.what, got[1], capW/3)
		}
		if s := sum(got); s > capW+1e-6 {
			t.Fatalf("%s: budgets sum to %g over cap %g", c.what, s, capW)
		}
	}
}

// BenchmarkApportionShards is the coarse-grid split at the tree-1k-8
// shape (benchShards), on the 2048-level grid.
func BenchmarkApportionShards(b *testing.B) {
	shards := benchShards(rand.New(rand.NewSource(8)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApportionShards(benchShardCapW, shards, 0)
	}
}
