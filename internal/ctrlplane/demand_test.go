package ctrlplane

import (
	"math"
	"sync"

	"powerstruggle/internal/cluster"
)

// demandBackend is the unit tests' workload-driven Backend: the server
// draws min(demand, cap) (never below the idle floor while powered), so
// a saturated server pins its draw at its cap and an idle one leaves
// headroom.
type demandBackend struct {
	mu       sync.Mutex
	floorW   float64
	namepW   float64
	demandW  float64
	perfPerW float64
}

func newDemandBackend(demandW float64) *demandBackend {
	return &demandBackend{floorW: 45, namepW: 61, demandW: demandW, perfPerW: 1.0 / 16}
}

// setDemand moves the workload's draw target.
func (b *demandBackend) setDemand(w float64) {
	b.mu.Lock()
	b.demandW = w
	b.mu.Unlock()
}

func (b *demandBackend) Apply(capW float64) (float64, float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	eff := math.Min(capW, b.namepW)
	var draw float64
	switch {
	case eff <= 0:
		draw = 0
	case eff < b.floorW:
		draw = eff
	default:
		draw = math.Min(math.Max(b.demandW, b.floorW), eff)
	}
	perf := (draw - b.floorW) * b.perfPerW
	if perf < 0 {
		perf = 0
	}
	return perf, draw, nil
}

func (b *demandBackend) SoC() float64        { return 0.5 }
func (b *demandBackend) IdleFloorW() float64 { return b.floorW }
func (b *demandBackend) NameplateW() float64 { return b.namepW }

// UtilityCurve characterizes the server's cap → perf capacity on the
// shared 2 W grid, floor to nameplate — 9 points per member, so a
// 125-agent shard's flat DP stays small and its rollup cheap.
func (b *demandBackend) UtilityCurve() ([]cluster.CapPoint, error) {
	var pts []cluster.CapPoint
	for w := b.floorW; w <= b.namepW+1e-9; w += cluster.ServerCapStepW {
		pts = append(pts, cluster.CapPoint{CapW: w, Perf: (w - b.floorW) * b.perfPerW, GridW: w})
	}
	return pts, nil
}
