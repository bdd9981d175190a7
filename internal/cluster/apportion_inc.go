package cluster

import (
	"math"

	"powerstruggle/internal/knapsack"
)

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
// the layers at and after the first position that changed.
//
// The cache exploits two structural properties of the DP. First, the
// value table best[l] after processing the members at positions 0..p
// depends only on those members' curves and on lower budget indices —
// never on the level the call happened to read. Second, a read-out at
// level L can only backtrack into position p's layer at levels
// [L-S_p, L], S_p being the most steps the members after p can spend
// (their summed curve spans), and from P_p up — every member up to p
// saturated — the layer is constant, a fill of its cell at P_p
// (knapsack.Layer). So each layer is kept valid over one contiguous span
// [los[p], len(layers[p])) and only ever holds cells some read-out
// needed: a dirty layer is rebuilt over just the cone of the call at
// hand, a clean layer keeps whatever span it has, and a later call whose
// cone reaches lower or higher extends the clean layers in position
// order, downward and upward. A cap change over spans already covered
// costs nothing. Every retained cell is produced by the exact arithmetic
// the full table over the same member order would run —
// TestConeDPMatchesNaiveReference holds all of it to the naive sweep.
//
// Positions follow a volatility order: members whose curves changed move
// to the tail, in member order among themselves, the rest keep their
// order, so a steady set of k learning members rebuilds about k layers
// wherever they sit in the fleet. A table in any other than member order
// sums in a different order than ApportionCurves, and near-ties may
// break differently, so each reordered answer carries a certificate
// (certify): it stands only if every step of its path beats the runner-up
// by more than either fold can round, which makes it the member-order
// DP's answer too; otherwise the call rebuilds the table in member order
// and answers from that, as the member-order cache always did. The
// budgets, perf and grid draw returned are bit-identical to
// ApportionCurves either way. A fleet whose member-order path does not
// certify (ties everywhere) is not reordered on the next call, so it
// pays for no attempts it would lose. Rollup reads every level's value,
// which only the member-order fold reproduces: once it has been called
// the table stays in member order.
//
// The zero value is ready to use. Not safe for concurrent use.
type Apportioner struct {
	floorW float64
	// order[p] is the member whose layer sits at position p, pos its
	// inverse; curves[p] is a defensive snapshot of that member's curve
	// as of the last DP run, for change detection, perfs[p] its perf
	// values back to back, as knapsack reads them, and tops[p] the
	// largest of their magnitudes (NaN if any is NaN), which scales the
	// certificate's bound.
	order, pos []int
	curves     [][]CapPoint
	perfs      [][]float64
	tops       []float64
	// layers[p] is the DP value vector after processing position p, and
	// t[p].Cho[l] the curve index the member there takes at budget level
	// l; both are indexed by absolute level (t[p].Lo is 0) and valid over
	// [los[p], len(layers[p])). Across positions the spans nest the way
	// the recurrence reads them: layer p-1 starts at least position p's
	// curve span below layer p (or at 0) and ends no lower. Choices are
	// uint16 — half the table's bytes at 8-byte ints — which is what
	// maxCurvePoints checks.
	layers [][]float64
	t      knapsack.Table[uint16]
	los    []int
	// zeros is the layer before position 0 and unit the unit-step cost
	// table: scratch knapsack.Layer reads, grown on demand and kept
	// across calls. next, dirty and choice are per-call scratch too: the
	// order being laid out, which members changed, and the point each
	// member takes.
	zeros  []float64
	unit   []int
	next   []int
	dirty  []bool
	choice []int
	// recomputed counts the layers rebuilt by the last call, fellBack
	// whether its certificate failed.
	recomputed int
	fellBack   bool
	// reorder is whether the next Apportion may lay the table out in
	// volatility order: the last path read certified. rolls is set by the
	// first Rollup and keeps the table in member order from then on.
	reorder, rolls bool
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

// LastRecomputed reports how many layers the last Apportion or Rollup
// call had to rebuild (0 when only the cap moved, or nothing did), the
// member-order rebuild of a call whose certificate failed included.
func (a *Apportioner) LastRecomputed() int { return a.recomputed }

// LastFellBack reports whether the last Apportion call's reordered
// answer failed its certificate and was answered from the member-order
// table instead.
func (a *Apportioner) LastFellBack() bool { return a.fellBack }

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
// a reader of budget levels [readLo, readHi], laid out in volatility
// order if reorder is set and in member order otherwise: afterwards
// position p's layer is valid from max(0, readLo-S_p) through readHi. It
// is the one place curve changes are detected: layers before the first
// position whose member moved or changed are kept and extended where the
// reader's cone leaves their span, layers from it on are rebuilt over
// exactly the cone — a position past a rebuilt one chains off its
// output, so it is rebuilt too.
func (a *Apportioner) sync(floorW float64, curves [][]CapPoint, readLo, readHi int, reorder bool) {
	n := len(curves)
	// A floor change reprices every curve point; drop the whole cache.
	if floorW != a.floorW {
		a.order = a.order[:0]
		a.floorW = floorW
	}
	had := len(a.order)
	a.dirty = resize(a.dirty, n)
	for m, c := range curves {
		a.dirty[m] = m >= had || curveChanged(a.curves[a.pos[m]], c)
	}
	next := a.next[:0]
	if reorder {
		for _, m := range a.order {
			if m < n && !a.dirty[m] {
				next = append(next, m)
			}
		}
		for m := range curves {
			if a.dirty[m] {
				next = append(next, m)
			}
		}
	} else {
		for m := range curves {
			next = append(next, m)
		}
	}
	first := 0
	for first < n && first < had && next[first] == a.order[first] && !a.dirty[next[first]] {
		first++
	}
	a.order, a.next = next, a.order
	a.pos = resize(a.pos, n)
	for p, m := range a.order {
		a.pos[m] = p
	}
	if first < n || had != n {
		a.rollup = nil
	}
	a.curves = resize(a.curves, n)
	a.perfs = resize(a.perfs, n)
	a.tops = resize(a.tops, n)
	a.layers = resize(a.layers, n)
	a.t = resize(a.t, n)
	a.los = resize(a.los, n)

	hi := readHi + 1
	after, longest := 0, 0
	for _, c := range curves {
		after += curveSpan(c)
		longest = max(longest, len(c))
	}
	if longest > len(a.unit) {
		a.unit = knapsack.UnitCosts(longest)
	}
	if hi > len(a.zeros) {
		a.zeros = make([]float64, hi)
	}
	// Position order matters: each new cell of layer p reads only layer
	// p-1, which covers this call's cone (and, by the nesting, whatever
	// layer p held before) by the time we get there, so extending a
	// clean prefix never invalidates it.
	prev, sat := a.zeros, 0
	for p, mem := range a.order {
		c := curves[mem]
		after -= curveSpan(c)
		sat += curveSpan(c)
		lo := max(0, readLo-after)
		m := &a.t[p]
		m.Cost = a.unit[:len(c)]
		if p >= first {
			a.recomputed++
			a.snapshot(p, c)
			a.layers[p] = resize(a.layers[p][:0], hi)
			m.Cho = resize(m.Cho[:0], hi)
			a.los[p] = lo
			a.chain(p, prev, lo, hi, sat)
		} else {
			if was := len(a.layers[p]); was < hi {
				a.layers[p] = resize(a.layers[p], hi)
				m.Cho = resize(m.Cho, hi)
				a.chain(p, prev, was, hi, sat)
			}
			if was := a.los[p]; lo < was {
				a.los[p] = lo
				a.chain(p, prev, lo, was, sat)
			}
		}
		prev = a.layers[p]
	}
}

// snapshot keeps curve c as position p's.
func (a *Apportioner) snapshot(p int, c []CapPoint) {
	a.curves[p] = append(a.curves[p][:0], c...)
	a.perfs[p] = resize(a.perfs[p], len(c))
	top := 0.0
	for k := range c {
		a.perfs[p][k] = c[k].Perf
		top = max(top, math.Abs(c[k].Perf))
	}
	a.tops[p] = top
}

// chain fills cells [lo, hi) of position p's layer from prev.
func (a *Apportioner) chain(p int, prev []float64, lo, hi, sat int) {
	knapsack.Layer(prev, a.t[p].Cost, a.perfs[p], lo, hi, sat, a.layers[p][lo:hi], a.t[p].Cho[lo:hi])
}

// certify backtracks a read at level l into choice, indexed by member,
// and, if check is set, reports whether the path it read is certified:
// whether at every position on it the chosen point beats the best other
// point affordable there (knapsack.Margin, off the layer before) by
// more than
//
//	bound = 8·n·2⁻⁵³·Σ_p max_k |perf_p[k]|
//
// Why that suffices. Any fold of n perf values, in any order, lands
// within n·2⁻⁵³·Σ_p max_k |perf_p[k]| (≈ e) of the exact sum, and
// every table cell is the largest fold over the plans reaching it. Take
// a plan y other than the path x and the last position p where they
// differ: both reach p at the same level, so y is exactly worse than x
// by at least the gap there less 2e. The member-order DP's plan x' folds
// to no less than x does, so it is exactly at most 2e worse than x; if
// x' were not x, the gap at the last position they differ would be at
// most 4e. A gap above 8e rules that out: the member-order DP reads the
// same plan, and summing its perf and grid draw in member order gives
// its floats too. Any non-finite value fails the bound or a gap.
func (a *Apportioner) certify(l int, check bool) bool {
	a.choice = resize(a.choice, len(a.order))
	scale := 0.0
	for _, top := range a.tops {
		scale += top
	}
	bound := 8 * float64(len(a.order)) * 0x1p-53 * scale
	for p := len(a.order) - 1; p >= 0; p-- {
		m, k := &a.t[p], -1
		if len(m.Cost) > 0 {
			if check {
				prev := a.zeros
				if p > 0 {
					prev = a.layers[p-1]
				}
				var gap float64
				k, gap = knapsack.Margin(prev, m.Cost, a.perfs[p], l)
				check = gap > bound
			} else {
				k = int(m.Cho[l])
			}
			l -= m.Cost[k]
		}
		a.choice[a.order[p]] = k
	}
	return check
}

// inMemberOrder reports whether the table is laid out in member order.
func (a *Apportioner) inMemberOrder() bool {
	for p, m := range a.order {
		if p != m {
			return false
		}
	}
	return true
}

// Apportion is ApportionCurves with the incremental cache. Same
// contract, bit-identical results.
func (a *Apportioner) Apportion(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	a.recomputed, a.fellBack = 0, false
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
	top := levels - 1
	a.sync(floorW, curves, top, top, a.reorder && !a.rolls)
	a.reorder = a.certify(top, !a.rolls)
	if !a.reorder && !a.inMemberOrder() {
		a.fellBack = true
		a.sync(floorW, curves, top, top, false)
		a.certify(top, false)
	}
	return spend(a.choice, floorW, curves, budgets)
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
	a.rolls = true
	a.sync(floorW, curves, 0, levels-1, false)
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
