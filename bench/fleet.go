package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/telemetry"
)

// Fleet-wide protocol settings shared by the three control-plane
// workloads: protocol-clock leases, so the benchmark survives the
// retirement of seconds-denominated leases.
const (
	fleetLeaseIv   = 2
	fleetIntervalS = 300.0
	// fleetDriftFrac of the agents redraw their demand each interval.
	fleetDriftFrac = 0.05
)

// demandBackend is the workload-driven member of flat-1k and tree-1k-8:
// the server draws clamp(demand, floor, min(cap, nameplate)), so a
// saturated server pins its draw at its cap and an idle one leaves
// headroom. Same model as the two-tier drill's, owned by the benchmark.
type demandBackend struct {
	mu      sync.Mutex
	demandW float64
	// curve is false for members that report no utility curve (flat-1k:
	// equal apportioning never reads one, and the psbench wire cells
	// ship none either).
	curve bool
}

const (
	demandFloorW   = 45.0
	demandNamepW   = 61.0
	demandPerfPerW = 1.0 / 16
)

func (b *demandBackend) setDemand(w float64) {
	b.mu.Lock()
	b.demandW = w
	b.mu.Unlock()
}

// uncappedPerf is what the server would deliver with no cap at all.
func (b *demandBackend) uncappedPerf() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return (math.Min(math.Max(b.demandW, demandFloorW), demandNamepW) - demandFloorW) * demandPerfPerW
}

func (b *demandBackend) Apply(capW float64) (float64, float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	eff := math.Min(capW, demandNamepW)
	var draw float64
	switch {
	case eff <= 0:
		draw = 0
	case eff < demandFloorW:
		draw = eff
	default:
		draw = math.Min(math.Max(b.demandW, demandFloorW), eff)
	}
	return math.Max(0, (draw-demandFloorW)*demandPerfPerW), draw, nil
}

func (b *demandBackend) SoC() float64        { return 0.5 }
func (b *demandBackend) IdleFloorW() float64 { return demandFloorW }
func (b *demandBackend) NameplateW() float64 { return demandNamepW }

// UtilityCurve is the 9-point capacity curve on the 2 W grid, floor to
// nameplate.
func (b *demandBackend) UtilityCurve() ([]cluster.CapPoint, error) {
	if !b.curve {
		return nil, nil
	}
	var pts []cluster.CapPoint
	for w := demandFloorW; w <= demandNamepW+1e-9; w += cluster.ServerCapStepW {
		pts = append(pts, cluster.CapPoint{CapW: w, Perf: (w - demandFloorW) * demandPerfPerW, GridW: w})
	}
	return pts, nil
}

// drawDemand is the seeded demand distribution: uniform across the
// whole floor-to-nameplate band, so a 50–55 W/agent cap binds for about
// half the fleet.
func drawDemand(rng *rand.Rand) float64 {
	return demandFloorW + rng.Float64()*(demandNamepW-demandFloorW)
}

// curveBackend is a member of flat-learn-128: a saturating cap-utility
// curve on the 50–130 W grid whose knee (tau) varies by member. With
// noise > 0 (the learners) every Apply multiplies the rate by a seeded
// factor in [1-noise, 1+noise], so the learned per-cell means — and
// with them the reported curve — move every interval.
type curveBackend struct {
	tau   float64
	noise float64

	mu  sync.Mutex
	rng *rand.Rand
}

const (
	curveFloorW = 50.0
	curveNamepW = 130.0
)

func (b *curveBackend) perfAt(capW float64) float64 {
	return (1 - math.Exp(-capW/b.tau)) / (1 - math.Exp(-curveNamepW/b.tau))
}

func (b *curveBackend) Apply(capW float64) (float64, float64, error) {
	eff := math.Min(capW, curveNamepW)
	if eff < curveFloorW {
		return 0, math.Max(eff, 0), nil
	}
	perf := b.perfAt(eff)
	if b.noise > 0 {
		b.mu.Lock()
		perf *= 1 + b.noise*(2*b.rng.Float64()-1)
		b.mu.Unlock()
	}
	return perf, eff, nil
}

func (b *curveBackend) SoC() float64        { return 0.5 }
func (b *curveBackend) IdleFloorW() float64 { return curveFloorW }
func (b *curveBackend) NameplateW() float64 { return curveNamepW }
func (b *curveBackend) UtilityCurve() ([]cluster.CapPoint, error) {
	return saturatingCurve(curveFloorW, curveNamepW, b.tau), nil
}

// layerCounters are the traced pass's counts and busy times at the
// member boundary. Members are called from server goroutines, so all
// fields are atomics. Every call is counted; one in timeEvery is timed,
// which keeps the decorators' own clock reads off most of the 2000+
// member calls a 1k-agent interval makes.
type layerCounters struct {
	scrapes, assigns, renews atomic.Int64
	handlerTimed, handlerNs  atomic.Int64
	applies                  atomic.Int64
	applyTimed, applyNs      atomic.Int64
	// keepReports makes every endpoint remember the last report it
	// served — the shadow DP's input.
	keepReports bool
}

const timeEvery = 8

// reset zeroes the counters once warm-up is done.
func (c *layerCounters) reset() {
	if c == nil {
		return
	}
	for _, v := range []*atomic.Int64{&c.scrapes, &c.assigns, &c.renews, &c.handlerTimed, &c.handlerNs, &c.applies, &c.applyTimed, &c.applyNs} {
		v.Store(0)
	}
}

// fold writes the member-boundary metrics for a pass of n intervals.
func (c *layerCounters) fold(n float64, layer map[string]float64) {
	if c == nil {
		return
	}
	calls := float64(c.scrapes.Load() + c.assigns.Load() + c.renews.Load())
	handlerUs := float64(c.handlerNs.Load()) / 1e3 / float64(max(c.handlerTimed.Load(), 1))
	layer["ctrlplane.scrapes"] = float64(c.scrapes.Load()) / n
	layer["ctrlplane.assigns"] = float64(c.assigns.Load()) / n
	layer["ctrlplane.renews"] = float64(c.renews.Load()) / n
	layer["ctrlplane.member_handler_us"] = handlerUs
	layer["ctrlplane.member_handler_ms_per_iv"] = handlerUs * calls / 1e3 / n
	layer["ctrlplane.backend_applies"] = float64(c.applies.Load()) / n
	layer["ctrlplane.backend_apply_us"] = float64(c.applyNs.Load()) / 1e3 / float64(max(c.applyTimed.Load(), 1))
}

// timedBackend is the Backend decorator of the traced pass.
type timedBackend struct {
	ctrlplane.Backend
	c *layerCounters
}

func (b timedBackend) Apply(capW float64) (float64, float64, error) {
	if b.c.applies.Add(1)%timeEvery != 0 {
		return b.Backend.Apply(capW)
	}
	t0 := time.Now()
	perf, grid, err := b.Backend.Apply(capW)
	b.c.applyNs.Add(time.Since(t0).Nanoseconds())
	b.c.applyTimed.Add(1)
	return perf, grid, err
}

// timedEndpoint is the CtrlEndpoint decorator of the traced pass.
type timedEndpoint struct {
	ep ctrlplane.CtrlEndpoint
	c  *layerCounters

	mu   sync.Mutex
	last ctrlplane.Report
}

// start counts one member call and reports whether to time it.
func (c *layerCounters) start(calls *atomic.Int64) (time.Time, bool) {
	if calls.Add(1)%timeEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *layerCounters) stop(t0 time.Time, timed bool) {
	if timed {
		c.handlerNs.Add(time.Since(t0).Nanoseconds())
		c.handlerTimed.Add(1)
	}
}

func (e *timedEndpoint) Assign(req ctrlplane.AssignRequest) (ctrlplane.AssignResponse, error) {
	t0, timed := e.c.start(&e.c.assigns)
	resp, err := e.ep.Assign(req)
	e.c.stop(t0, timed)
	return resp, err
}

func (e *timedEndpoint) Renew(req ctrlplane.LeaseRequest) (ctrlplane.LeaseResponse, error) {
	t0, timed := e.c.start(&e.c.renews)
	resp, err := e.ep.Renew(req)
	e.c.stop(t0, timed)
	return resp, err
}

func (e *timedEndpoint) Scrape(t float64, hasT bool) (ctrlplane.Report, error) {
	t0, timed := e.c.start(&e.c.scrapes)
	rep, err := e.ep.Scrape(t, hasT)
	e.c.stop(t0, timed)
	if err == nil && e.c.keepReports {
		e.mu.Lock()
		e.last = rep
		e.mu.Unlock()
	}
	return rep, err
}

// lastReport is exactly what the coordinator last scraped from this
// member.
func (e *timedEndpoint) lastReport() ctrlplane.Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last
}

// fleetSlice is a set of agents behind one binary listener.
type fleetSlice struct {
	agents []*ctrlplane.Agent
	timed  []*timedEndpoint // traced pass only, parallel to agents
	srv    *ctrlplane.BinaryServer
	refs   []ctrlplane.AgentRef
}

// startSlice boots one agent per config behind a single listener. With
// counters non-nil every agent and backend is wrapped in the timing
// decorators.
func startSlice(cfgs []ctrlplane.AgentConfig, c *layerCounters) (*fleetSlice, error) {
	f := &fleetSlice{}
	eps := make(map[int]ctrlplane.CtrlEndpoint, len(cfgs))
	for _, cfg := range cfgs {
		if c != nil {
			cfg.Backend = timedBackend{cfg.Backend, c}
		}
		a, err := ctrlplane.NewAgent(cfg)
		if err != nil {
			return nil, err
		}
		f.agents = append(f.agents, a)
		if c != nil {
			te := &timedEndpoint{ep: a, c: c}
			f.timed = append(f.timed, te)
			eps[cfg.ID] = te
		} else {
			eps[cfg.ID] = a
		}
	}
	srv, err := ctrlplane.StartBinaryServer("127.0.0.1:0", ctrlplane.BinaryServerConfig{Endpoints: eps})
	if err != nil {
		return nil, err
	}
	f.srv = srv
	for _, a := range f.agents {
		f.refs = append(f.refs, ctrlplane.AgentRef{ID: a.ID(), URL: srv.URL()})
	}
	return f, nil
}

func (f *fleetSlice) close() {
	if f != nil && f.srv != nil {
		f.srv.Close()
	}
}

// wireBytes reads the product's own wire-byte counter (both directions
// of the binary transport) off a coordinator telemetry hub.
func wireBytes(hub *telemetry.Hub) float64 {
	vec := hub.Registry().CounterVec("ps_ctrl_wire_bytes_total", "", "transport", "dir")
	return float64(vec.With("binary", "tx").Value() + vec.With("binary", "rx").Value())
}

// fleetSums reads what the fleet enforces and delivers right now.
func fleetSums(agents []*ctrlplane.Agent) (capSumW, perfSum float64) {
	for _, a := range agents {
		capSumW += a.CapW()
		perfSum += a.PerfN()
	}
	return capSumW, perfSum
}

// checkStep is the per-interval validity gate shared by the flat
// workloads: no RPC error after retries and every live member granted.
func checkStep(res ctrlplane.StepResult) error {
	if res.ScrapeErrs != 0 || res.AssignErrs != 0 {
		return fmt.Errorf("RPC errors after retries: %d scrape, %d assign", res.ScrapeErrs, res.AssignErrs)
	}
	if res.Rehydrating {
		return fmt.Errorf("coordinator still rehydrating its interval counter")
	}
	for i, g := range res.Granted {
		if res.Alive[i] && !g {
			return fmt.Errorf("live member %d not granted", i)
		}
	}
	return nil
}

// drift redraws the demand of a seeded fleetDriftFrac of the members
// and refreshes them, hashing the choices into the input digest. It
// returns the change in the fleet's summed uncapped performance.
func drift(rng *rand.Rand, backends []*demandBackend, agents []*ctrlplane.Agent, in digest, hashed bool) (float64, error) {
	n := int(float64(len(agents))*fleetDriftFrac + 0.5)
	var delta float64
	for k := 0; k < n; k++ {
		j := rng.Intn(len(agents))
		w := drawDemand(rng)
		delta -= backends[j].uncappedPerf()
		backends[j].setDemand(w)
		delta += backends[j].uncappedPerf()
		if err := agents[j].Refresh(); err != nil {
			return 0, err
		}
		if hashed {
			in.int(j)
			in.f64(w)
		}
	}
	return delta, nil
}
