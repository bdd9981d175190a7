package cluster

import "powerstruggle/internal/knapsack"

// Apportioner is the one incremental forward DP table a coordinator
// owns. It caches the ApportionCurves DP's per-member prefix layers
// between calls and has two readers over that one table:
//
//   - Apportion backtracks from a single budget level to per-member
//     budgets — ApportionCurves with the cache.
//   - Rollup reads every level out as the shard-level aggregate curve a
//     tier above apportions against.
//
// Both go through sync, which owns change detection and replays only
// the layers at and after the first member whose curve changed.
//
// The cache exploits two structural properties of the DP. First, the
// value table best[l] after processing members 0..i depends only on
// those members' curves and on lower budget indices — never on the
// level the call happened to read. Second, a read-out at level L can
// only backtrack into member i's layer at levels [L-S_i, L], S_i being
// the most steps the members after i can spend (their summed curve
// spans), and from P_i up — every member up to i saturated — the layer
// is constant, a fill of its cell at P_i (knapsack.Layer). So each layer is
// kept valid over one contiguous span [los[i], len(layers[i])) and only
// ever holds cells some read-out needed: a dirty layer is rebuilt over
// just the cone of the call at hand, a clean layer keeps whatever span
// it has, and a later call whose cone reaches lower or higher extends
// the clean layers in member order, downward and upward. A cap change
// over spans already covered costs nothing. Because every retained
// cell was produced by the exact arithmetic the full table would run,
// the budgets, perf, and grid draw returned are bit-identical to the
// full DP by construction — TestConeDPMatchesNaiveReference holds all
// of it to the naive sweep.
//
// The zero value is ready to use. Not safe for concurrent use.
type Apportioner struct {
	floorW float64
	// curves holds a defensive snapshot of each member's curve as of
	// the last DP run, for change detection.
	curves [][]CapPoint
	// layers[i] is the DP value vector after processing member i, and
	// t[i].Cho[l] the curve index member i takes at budget level l; both
	// are indexed by absolute level (t[i].Lo is 0) and valid over
	// [los[i], len(layers[i])). Across members the spans nest the way
	// the recurrence reads them: layer i-1 starts at least member i's
	// curve span below layer i (or at 0) and ends no lower. Choices are
	// uint16 — half the table's bytes at 8-byte ints — which is what
	// maxCurvePoints checks.
	layers [][]float64
	t      knapsack.Table[uint16]
	los    []int
	// zeros is the layer before member 0, unit the unit-step cost table
	// and perf the contiguous copy of the curve being chained: scratch
	// knapsack.Layer reads, grown on demand and kept across calls.
	zeros []float64
	unit  []int
	perf  []float64
	// recomputed counts the member layers rebuilt by the last call.
	recomputed int
	// rollup memoizes the last Rollup read-out (thinned to rollupPoints)
	// for as long as the snapshot it was read from stands. It is
	// replaced, never written in place, so a caller may keep sharing a
	// returned slice read-only.
	rollup       []CapPoint
	rollupPoints int
}

// maxCurvePoints is the longest curve the uint16 choice table indexes
// (131 kW above the floor at 2 W a point — no server has one).
const maxCurvePoints = knapsack.MaxPoints16

// LastRecomputed reports how many member layers the last Apportion or
// Rollup call had to rebuild (0 when only the cap moved, or nothing
// did).
func (a *Apportioner) LastRecomputed() int { return a.recomputed }

// curveChanged reports whether cur differs from the cached snapshot.
func curveChanged(snap, cur []CapPoint) bool {
	if len(snap) != len(cur) {
		return true
	}
	for i := range cur {
		if snap[i] != cur[i] {
			return true
		}
	}
	return false
}

// resize returns s with length n, keeping its first min(len(s), n)
// elements; the rest is for the caller to fill.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// sync brings the table up to date with curves priced from floorW for
// a reader of budget levels [readLo, readHi]: afterwards member i's
// layer is valid from max(0, readLo-S_i) through readHi. It is the one
// place curve changes are detected: layers before the first changed
// member are kept and extended where the reader's cone leaves their
// span, layers from it on are rebuilt over exactly the cone — a member
// past a dirty one chains off its output, so it is rebuilt too.
func (a *Apportioner) sync(floorW float64, curves [][]CapPoint, readLo, readHi int) {
	n := len(curves)
	a.recomputed = 0
	// A floor change reprices every curve point; drop the whole cache.
	if floorW != a.floorW {
		a.curves = a.curves[:0]
		a.floorW = floorW
	}
	firstDirty := n
	for i := 0; i < n; i++ {
		if i >= len(a.curves) || curveChanged(a.curves[i], curves[i]) {
			firstDirty = i
			break
		}
	}
	if firstDirty < n || len(a.curves) != n {
		a.rollup = nil
	}
	for len(a.curves) < n {
		a.curves = append(a.curves, nil)
		a.layers = append(a.layers, nil)
		a.t = append(a.t, knapsack.Member[uint16]{})
		a.los = append(a.los, 0)
	}
	a.curves = a.curves[:n]
	a.layers = a.layers[:n]
	a.t = a.t[:n]
	a.los = a.los[:n]

	hi := readHi + 1
	after, longest := 0, 0
	for _, c := range curves {
		after += curveSpan(c)
		longest = max(longest, len(c))
	}
	if longest > len(a.unit) {
		a.unit, a.perf = knapsack.UnitCosts(longest), make([]float64, longest)
	}
	if hi > len(a.zeros) {
		a.zeros = make([]float64, hi)
	}
	// Member order matters: each new cell of layer i reads only layer
	// i-1, which covers this call's cone (and, by the nesting, whatever
	// layer i held before) by the time we get there, so extending a
	// clean prefix never invalidates it.
	prev, sat := a.zeros, 0
	for i, c := range curves {
		after -= curveSpan(c)
		sat += curveSpan(c)
		lo := max(0, readLo-after)
		m := &a.t[i]
		m.Cost = a.unit[:len(c)]
		if i >= firstDirty {
			a.recomputed++
			a.curves[i] = append(a.curves[i][:0], c...)
			a.layers[i] = resize(a.layers[i][:0], hi)
			m.Cho = resize(m.Cho[:0], hi)
			a.los[i] = lo
			a.chain(i, prev, lo, hi, sat)
		} else {
			if was := len(a.layers[i]); was < hi {
				a.layers[i] = resize(a.layers[i], hi)
				m.Cho = resize(m.Cho, hi)
				a.chain(i, prev, was, hi, sat)
			}
			if was := a.los[i]; lo < was {
				a.los[i] = lo
				a.chain(i, prev, lo, was, sat)
			}
		}
		prev = a.layers[i]
	}
}

// chain fills cells [lo, hi) of member i's layer from prev.
func (a *Apportioner) chain(i int, prev []float64, lo, hi, sat int) {
	c := a.curves[i]
	for k := range c {
		a.perf[k] = c[k].Perf
	}
	knapsack.Layer(prev, a.t[i].Cost, a.perf, lo, hi, sat, a.layers[i][lo:hi], a.t[i].Cho[lo:hi])
}

// Apportion is ApportionCurves with the incremental cache. Same
// contract, bit-identical results.
func (a *Apportioner) Apportion(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	a.recomputed = 0
	budgets, gridW, levels := floorsFirst(clusterCapW, floorW, len(curves))
	if levels == 0 {
		// No DP ran, so the cache keeps whatever validity it had.
		return budgets, 0, gridW
	}
	for _, c := range curves {
		if len(c) > maxCurvePoints {
			return ApportionCurves(clusterCapW, floorW, curves)
		}
	}
	a.sync(floorW, curves, levels-1, levels-1)
	return spend(a.t, levels-1, floorW, curves, budgets)
}

// Rollup aggregates the members' cap-utility curves into one
// shard-level curve, thinned by DownsampleCurve to at most maxPoints:
// point l of the full read-out is the best summed performance (and the
// grid draw of the member split achieving it) the members can deliver
// when granted floorW each plus l spare steps of ServerCapStepW, for
// every l up to all members saturated. It is the forward table Apportion
// backtracks through, read out level by level, so a cluster-level
// apportioner consuming the rollup prices the shard's watts exactly as
// the shard's own coordinator will spend them.
//
// The result is memoized: while floorW, curves and maxPoints stand the
// same slice is returned with no DP work and no allocation. Callers
// must treat it as read-only.
//
// Every curve must be non-empty (curveless members have no utility to
// roll up — the shard reports an empty aggregate and the tier above
// falls back to its even-share path); nil is returned otherwise.
func (a *Apportioner) Rollup(floorW float64, curves [][]CapPoint, maxPoints int) []CapPoint {
	n := len(curves)
	a.recomputed = 0
	if n == 0 {
		return nil
	}
	levels := 1
	for _, c := range curves {
		if len(c) == 0 || len(c) > maxCurvePoints {
			return nil
		}
		levels += len(c) - 1
	}
	a.sync(floorW, curves, 0, levels-1)
	if a.rollup != nil && a.rollupPoints == maxPoints {
		return a.rollup
	}
	// Grid draw rides the argmax path, summed in member order — the
	// association the two-slab forward rollup used, so the floats agree
	// bit for bit.
	grid, next := make([]float64, levels), make([]float64, levels)
	for i, c := range curves {
		cho := a.t[i].Cho
		for l := range next {
			k := int(cho[l])
			next[l] = grid[l-k] + c[k].GridW
		}
		grid, next = next, grid
	}
	best := a.layers[n-1]
	full := make([]CapPoint, levels)
	base := floorW * float64(n)
	for l := range full {
		full[l] = CapPoint{CapW: base + float64(l)*serverCapStepW, Perf: best[l], GridW: grid[l]}
	}
	a.rollup, a.rollupPoints = DownsampleCurve(full, maxPoints), maxPoints
	return a.rollup
}
