package allocator

import (
	"sync/atomic"
	"time"

	"powerstruggle/internal/telemetry"
)

// telHandles is the allocator's pre-resolved instrument set. The
// allocator's entry points are pure functions called from several layers
// (policy planning, the ESD grid search, cluster replay), so the handles
// hang off one process-wide atomic pointer instead of threading a
// registry through every signature; a nil pointer costs one atomic load
// per solve.
type telHandles struct {
	solves       *telemetry.CounterVec
	solveSeconds *telemetry.HistogramVec
	apportionedW *telemetry.Gauge
	budgetW      *telemetry.Gauge
}

var tel atomic.Pointer[telHandles]

// EnableTelemetry instruments every allocator solve against reg: solve
// counts and wall-clock solve time by solver (the DP and the equal
// split), plus the last solve's budget and spent watts.
// Passing nil turns instrumentation back off. Metrics never influence
// the solve, so enabling this cannot change any allocation.
func EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		tel.Store(nil)
		return
	}
	tel.Store(&telHandles{
		solves: reg.CounterVec("ps_allocator_solves_total",
			"Apportioning solves, by solver.", "solver"),
		solveSeconds: reg.HistogramVec("ps_allocator_solve_seconds",
			"Wall-clock time of one apportioning solve, by solver.",
			telemetry.LatencyBuckets(), "solver"),
		apportionedW: reg.Gauge("ps_allocator_apportioned_watts",
			"Dynamic watts the last solve's operating points actually draw."),
		budgetW: reg.Gauge("ps_allocator_budget_watts",
			"Dynamic budget handed to the last solve."),
	})
}

// observeSolve records one finished solve.
func (h *telHandles) observeSolve(solver string, start time.Time, budget float64, plan Plan) {
	h.solves.With(solver).Inc()
	h.solveSeconds.With(solver).Observe(time.Since(start).Seconds())
	h.budgetW.Set(budget)
	h.apportionedW.Set(plan.SpentW)
}
