package workload

import (
	"sort"
	"sync"

	"powerstruggle/internal/simhw"
)

// Point is one operating point on an application's power-performance
// utility curve: a knob setting, the dynamic power it draws, and the
// delivered performance normalized to the application's uncapped rate.
type Point struct {
	Knobs  Knobs
	PowerW float64
	Perf   float64
	// DutyFrac is the fraction of time the application actually runs at
	// Knobs; values below 1 model RAPL's forced-idle clamping when even
	// the lowest DVFS state exceeds the budget. Power and Perf are
	// duty-averaged.
	DutyFrac float64
}

// Curve is a power-performance utility curve: Pareto-optimal operating
// points sorted by ascending power. It is the computational form of the
// paper's Fig. 2 (one curve per application) and the object the
// PowerAllocator water-fills over.
type Curve struct {
	points []Point
	// rayIdx, when non-nil, enables the exact duty-ray region: rayIdx[i]
	// is the index in points[i:] (absolute) of the steady point with the
	// best performance per watt, so At can synthesize run/suspend duty
	// cycling of the most efficient unaffordable point.
	rayIdx []int
}

// Points returns the curve's Pareto points in ascending power order.
func (c *Curve) Points() []Point {
	out := make([]Point, len(c.points))
	copy(out, c.points)
	return out
}

// Len returns the number of Pareto points.
func (c *Curve) Len() int { return len(c.points) }

// MinPower returns the power of the cheapest runnable point, or 0 for an
// empty curve.
func (c *Curve) MinPower() float64 {
	if len(c.points) == 0 {
		return 0
	}
	return c.points[0].PowerW
}

// MaxPower returns the power of the most expensive point, or 0 for an
// empty curve.
func (c *Curve) MaxPower() float64 {
	if len(c.points) == 0 {
		return 0
	}
	return c.points[len(c.points)-1].PowerW
}

// At returns the best operating point affordable under budget watts. ok
// is false when even the cheapest point exceeds the budget and the curve
// has no duty-ray region — the regime where the Coordinator must
// multiplex in time instead. Curves with duty rays (OptimalCurve,
// CurveFromEval) additionally consider running an unaffordable steady
// point a budget/power fraction of the time, the exact concave envelope
// of RAPL-style forced idling.
func (c *Curve) At(budget float64) (Point, bool) {
	// points is sorted by power with strictly increasing perf, so the
	// last affordable point is the best one.
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].PowerW > budget })
	var (
		steady   Point
		okSteady bool
	)
	if i > 0 {
		steady, okSteady = c.points[i-1], true
	}
	if c.rayIdx == nil || i >= len(c.points) || budget <= 0 {
		return steady, okSteady
	}
	ray := c.points[c.rayIdx[i]]
	frac := budget / ray.PowerW
	rayPt := Point{
		Knobs:    ray.Knobs,
		PowerW:   budget,
		Perf:     ray.Perf * frac,
		DutyFrac: ray.DutyFrac * frac,
	}
	if !okSteady || rayPt.Perf > steady.Perf {
		return rayPt, true
	}
	return steady, true
}

// PerfAt returns the normalized performance affordable under budget
// watts, or 0 if the application cannot run at all under it.
func (c *Curve) PerfAt(budget float64) float64 {
	pt, ok := c.At(budget)
	if !ok {
		return 0
	}
	return pt.Perf
}

// Marginal returns the performance gained by raising the budget from w to
// w+step, divided by step: the per-watt utility slope the paper's R1
// argument is about.
func (c *Curve) Marginal(w, step float64) float64 {
	if step <= 0 {
		return 0
	}
	return (c.PerfAt(w+step) - c.PerfAt(w)) / step
}

// pareto sorts raw operating points by power and keeps only those with
// strictly increasing performance, deduplicating equal-power points in
// favor of the better one.
func pareto(raw []Point) *Curve {
	sort.Slice(raw, func(i, j int) bool {
		if raw[i].PowerW != raw[j].PowerW {
			return raw[i].PowerW < raw[j].PowerW
		}
		return raw[i].Perf > raw[j].Perf
	})
	var pts []Point
	best := -1.0
	for _, p := range raw {
		if p.Perf > best {
			pts = append(pts, p)
			best = p.Perf
		}
	}
	return &Curve{points: pts}
}

// OptimalCurve returns the application's full utility curve: the Pareto
// frontier over the entire discrete (f, n, m) knob space. This is what
// the App+Res-Aware policy allocates against.
//
// Curves are memoized process-wide by value: the platform plus every
// scalar field of the profile, a superset of what Power and NormRate
// read. A re-plan over the same applications, or over a phase-resolved
// copy already seen, builds nothing. A Curve is never written after
// construction, so callers share it.
func OptimalCurve(cfg simhw.Config, p *Profile) *Curve {
	k := curveKey{
		cfg: cfg, name: p.Name, class: p.Class,
		baseRate: p.BaseRate, parallelFrac: p.ParallelFrac,
		memBytesPerBeat: p.MemBytesPerBeat, cpuActivity: p.CPUActivity,
		maxCores: p.MaxCores,
	}
	optimalMemo.Lock()
	c, ok := optimalMemo.curves[k]
	optimalMemo.Unlock()
	if ok {
		return c
	}
	c = optimalCurve(cfg, p)
	optimalMemo.Lock()
	if len(optimalMemo.curves) >= optimalMemoMax || optimalMemo.curves == nil {
		optimalMemo.curves = make(map[curveKey]*Curve)
	}
	optimalMemo.curves[k] = c
	optimalMemo.Unlock()
	return c
}

// curveKey is the value OptimalCurve memoizes on. Phases are left out:
// Power and NormRate ignore them.
type curveKey struct {
	cfg             simhw.Config
	name            string
	class           Class
	baseRate        float64
	parallelFrac    float64
	memBytesPerBeat float64
	cpuActivity     float64
	maxCores        int
}

// optimalMemoMax bounds the memo; past it the memo is cleared wholesale.
// A server sees a few dozen (application, phase) pairs.
const optimalMemoMax = 1024

var optimalMemo struct {
	sync.Mutex
	curves map[curveKey]*Curve
}

// optimalCurve builds the curve OptimalCurve memoizes.
func optimalCurve(cfg simhw.Config, p *Profile) *Curve {
	knobs := EnumKnobs(cfg, p.MaxCores)
	raw := make([]Point, 0, len(knobs)+8)
	for _, k := range knobs {
		raw = append(raw, Point{Knobs: k, PowerW: p.Power(cfg, k), Perf: p.NormRate(cfg, k), DutyFrac: 1})
	}
	return withDutyRays(pareto(raw))
}

// withDutyRays enables the exact duty-ray region on a steady frontier:
// at any budget b below a steady point's power P, running that point a
// b/P fraction of the time delivers a b/P fraction of its performance
// (RAPL-style forced idling at fine grain). At synthesizes the best such
// point from a precomputed suffix-max of performance per watt; the
// result is the frontier's concave envelope through the origin — the
// best any enforcement can do without blending two non-idle settings.
func withDutyRays(c *Curve) *Curve {
	n := len(c.points)
	if n == 0 {
		return c
	}
	c.rayIdx = make([]int, n)
	best := n - 1
	bestRatio := -1.0
	for i := n - 1; i >= 0; i-- {
		p := c.points[i]
		if p.PowerW > 0 {
			if r := p.Perf / p.PowerW; r > bestRatio {
				bestRatio, best = r, i
			}
		}
		c.rayIdx[i] = best
	}
	return c
}

// idleInjectSteps is the resolution of the forced-idle region prepended
// to utility curves.
const idleInjectSteps = 64

// idleInjectPoints prepends the forced-idle clamp region below an
// enforcement's cheapest steady point: the hardware alternates the task
// between that point and full suspension, so averaged power and
// performance scale linearly with the duty fraction.
func idleInjectPoints(base Point, steps int) []Point {
	out := make([]Point, 0, steps)
	for i := 1; i < steps; i++ {
		frac := float64(i) / float64(steps)
		out = append(out, Point{
			Knobs:    base.Knobs,
			PowerW:   base.PowerW * frac,
			Perf:     base.Perf * frac,
			DutyFrac: frac,
		})
	}
	return out
}

// raplGridStepW is the budget grid on which enforcement-style curves are
// sampled.
const raplGridStepW = 0.5

// RAPLCurve builds the utility curve a hardware package-RAPL enforcement
// sees: utility-blind, it keeps all the application's cores and an
// uncapped DRAM channel and throttles frequency — then forced idling,
// below the DVFS floor — until the measured draw meets the budget. This
// is the enforcement behind the Util-Unaware baseline and the
// application-level — but not resource-level — view of the App-Aware
// policy.
func RAPLCurve(cfg simhw.Config, p *Profile) *Curve {
	raw := make([]Point, 0, cfg.FreqSteps()+8)
	var cheapest Point
	for i, f := range cfg.FreqLadder() {
		k := Knobs{FreqGHz: f, Cores: p.MaxCores, MemWatts: cfg.MemMaxWatts}
		pt := Point{Knobs: k, PowerW: p.Power(cfg, k), Perf: p.NormRate(cfg, k), DutyFrac: 1}
		if i == 0 {
			cheapest = pt
		}
		raw = append(raw, pt)
	}
	// Below the lowest DVFS state, RAPL clamps with forced idling.
	raw = append(raw, idleInjectPoints(cheapest, idleInjectSteps)...)
	return pareto(raw)
}

// ShapedCurve builds the per-application curve the Server+Res-Aware
// baseline operates on: at every budget, adopt — verbatim — the knob
// shape the library-average curve picks there. The baseline is
// application-blind: it looks the shape up in a server-level table, so
// when the shape draws more on this application than the budget allows,
// the hardware clamps it with forced idling rather than re-fitting the
// knobs to the application.
func ShapedCurve(cfg simhw.Config, p *Profile, shape *Curve) *Curve {
	maxB := p.NoCapPower(cfg)
	var raw []Point
	for b := raplGridStepW; b <= maxB+raplGridStepW; b += raplGridStepW {
		sp, ok := shape.At(b)
		k := MinKnobs(cfg)
		if ok {
			k = sp.Knobs.Clamp(cfg, p.MaxCores)
		}
		w := p.Power(cfg, k)
		perf := p.NormRate(cfg, k)
		if w <= b {
			raw = append(raw, Point{Knobs: k, PowerW: w, Perf: perf, DutyFrac: 1})
			continue
		}
		frac := b / w
		raw = append(raw, Point{Knobs: k, PowerW: b, Perf: perf * frac, DutyFrac: frac})
	}
	return pareto(raw)
}

// PointEval scores one knob setting for curve construction: the power it
// is believed to draw and the normalized performance it is believed to
// deliver. The oracle evaluator reads the analytic model; the
// collaborative-filtering estimator substitutes learned estimates.
type PointEval func(k Knobs) (powerW, perf float64)

// OracleEval returns the model-exact evaluator for a profile.
func OracleEval(cfg simhw.Config, p *Profile) PointEval {
	return func(k Knobs) (float64, float64) {
		return p.Power(cfg, k), p.NormRate(cfg, k)
	}
}

// CurveFromEval builds a Pareto utility curve over the full knob space
// using an arbitrary evaluator — the hook through which estimated
// utilities (Section III-A's collaborative filtering) reach the
// allocator.
func CurveFromEval(cfg simhw.Config, maxCores int, eval PointEval) *Curve {
	knobs := EnumKnobs(cfg, maxCores)
	raw := make([]Point, 0, len(knobs)+idleInjectSteps)
	for _, k := range knobs {
		w, perf := eval(k)
		if w < 0 || perf < 0 {
			continue
		}
		raw = append(raw, Point{Knobs: k, PowerW: w, Perf: perf, DutyFrac: 1})
	}
	return withDutyRays(pareto(raw))
}

// AverageCurve builds the server-level resource utility curve the
// Server+Res-Aware baseline uses: for every knob setting, performance and
// power are averaged across all library applications, and the Pareto
// frontier of those averages picks one knob shape per budget. The shape
// is then applied to every application regardless of its own utilities.
func AverageCurve(cfg simhw.Config, profiles []*Profile) *Curve {
	if len(profiles) == 0 {
		return &Curve{}
	}
	maxCores := 0
	for _, p := range profiles {
		if p.MaxCores > maxCores {
			maxCores = p.MaxCores
		}
	}
	knobs := EnumKnobs(cfg, maxCores)
	raw := make([]Point, 0, len(knobs))
	for _, k := range knobs {
		var perf, pow float64
		for _, p := range profiles {
			perf += p.NormRate(cfg, k)
			pow += p.Power(cfg, k)
		}
		n := float64(len(profiles))
		raw = append(raw, Point{Knobs: k, PowerW: pow / n, Perf: perf / n, DutyFrac: 1})
	}
	return pareto(raw)
}
