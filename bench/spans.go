package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"powerstruggle/internal/telemetry"
)

// Layer names, one per repo module on a measured interval's path.
const (
	layerBench       = "bench"
	layerSimhw       = "simhw"
	layerWorkload    = "workload"
	layerAllocator   = "allocator"
	layerPolicy      = "policy"
	layerCoordinator = "coordinator"
	layerAccountant  = "accountant"
	layerESD         = "esd"
	layerCF          = "cf"
	layerCluster     = "cluster"
	layerCtrl        = "ctrlplane"
	layerTelemetry   = "telemetry"
)

// Trace tracks: the driver's own calls on one, work that runs on server
// goroutines (trunk handlers) on another, so Perfetto nests by
// containment within each.
const (
	tidDriver = 1
	tidServer = 2
)

// spanRec records the traced pass's spans {name, layer, iv, start, end,
// parent} into internal/telemetry's span ring and exports them with its
// Chrome-trace writer. A nil *spanRec records nothing, so workloads
// plumb it unconditionally and the untraced pass pays one nil check.
type spanRec struct {
	tr   *telemetry.Tracer
	t0   time.Time
	next atomic.Int64
	cur  atomic.Int64 // id of the interval span in progress
}

// spanRingSize holds a whole traced pass: the busiest workload
// (tree-1k-8) emits ~50 spans per interval, the fastest (server-churn)
// one span per millisecond.
const spanRingSize = 1 << 18

func newSpanRec() *spanRec {
	r := &spanRec{tr: telemetry.NewTracer(spanRingSize), t0: time.Now()}
	r.tr.SetThreadName(tidDriver, "psperf driver")
	r.tr.SetThreadName(tidServer, "server goroutines")
	return r
}

// newID reserves a span id before the spanned call starts, so children
// recorded during the call can name their parent.
func (r *spanRec) newID() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// beginInterval reserves the id of the interval span about to start.
func (r *spanRec) beginInterval() int64 {
	if r == nil {
		return 0
	}
	id := r.newID()
	r.cur.Store(id)
	return id
}

// interval returns the id of the interval span in progress.
func (r *spanRec) interval() int64 {
	if r == nil {
		return 0
	}
	return r.cur.Load()
}

// emit records a finished span under a reserved id.
func (r *spanRec) emit(id int64, name, layer string, tid, iv int, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.tr.Span(name, layer, tid, start.Sub(r.t0).Seconds(), end.Sub(start).Seconds(),
		telemetry.A("id", id), telemetry.A("iv", iv), telemetry.A("parent", parent))
}

// span records a finished driver-side span and returns its id.
func (r *spanRec) span(name, layer string, iv int, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	id := r.newID()
	r.emit(id, name, layer, tidDriver, iv, parent, start, end)
	return id
}

// span is one decoded trace span, times in seconds since the recorder
// started.
type span struct {
	id, parent int64
	name       string
	layer      string
	iv         int
	start, end float64
}

func (s span) dur() float64 { return s.end - s.start }

// spans decodes the ring, oldest first.
func (r *spanRec) spans() []span {
	if r == nil {
		return nil
	}
	evs := r.tr.Events()
	out := make([]span, 0, len(evs))
	for _, ev := range evs {
		if ev.Ph != 'X' {
			continue
		}
		s := span{name: ev.Name, layer: ev.Cat, start: ev.TsS, end: ev.TsS + ev.DurS}
		for _, a := range ev.Attrs {
			switch a.Key {
			case "id":
				s.id, _ = a.Val.(int64)
			case "parent":
				s.parent, _ = a.Val.(int64)
			case "iv":
				s.iv, _ = a.Val.(int)
			}
		}
		out = append(out, s)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// dropped reports spans lost to ring wraparound; a traced pass that
// dropped any cannot be attributed.
func (r *spanRec) dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.tr.Dropped()
}

// selfTimes returns each span's self time: its duration minus the part
// of it its direct children cover. Children may overlap one another
// (fan-out runs them concurrently), so coverage is the length of their
// union clipped to the parent.
func selfTimes(spans []span) map[int64]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, edge := 0.0, s.start
		for _, c := range cs {
			lo, hi := c.start, c.end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// durationsMs collects the durations of spans matching keep, in ms.
func durationsMs(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, s.dur()*1e3)
		}
	}
	return out
}

// write exports the ring as Chrome trace JSON under dir.
func (r *spanRec) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("psperf-%s.trace.json", workload))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := r.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
