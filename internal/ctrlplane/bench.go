package ctrlplane

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"powerstruggle/internal/cluster"
)

// This file is the wire benchmark harness behind cmd/psbench and the
// committed BENCH_ctrlplane.json baseline. It measures the transport,
// not the planner: agents run a constant-time backend so interval
// latency and allocations are dominated by encode/decode, conn
// management, and fan-out — the things the binary transport exists to
// improve. Policy (docs/BENCHMARKS.md, after SNIPPETS §1): a fixed
// canonical scenario, N >= 5 runs per cell, minimum-of-runs reported.

// benchBackend is a constant-time Backend: the cap maps linearly to
// perf and draw with no planning, so the wire is the hot path.
type benchBackend struct{}

func (benchBackend) Apply(capW float64) (float64, float64, error) {
	if capW > 320 {
		capW = 320
	}
	return capW / 320, capW, nil
}
func (benchBackend) SoC() float64                              { return 0.5 }
func (benchBackend) IdleFloorW() float64                       { return 45 }
func (benchBackend) NameplateW() float64                       { return 320 }
func (benchBackend) UtilityCurve() ([]cluster.CapPoint, error) { return nil, nil }

// BenchFleet is N bench agents behind a single listener — one HTTP
// server routing /a/<i>/ctrl/* per agent, or one binary frame server —
// so a 1k-agent cell needs two sockets, not a thousand, and both
// transports face the identical topology (shared host, per-agent
// base URLs for JSON; shared tcp:// URL, batchable, for binary).
type BenchFleet struct {
	Agents []*Agent

	refs []AgentRef
	ln   net.Listener
	srv  *http.Server
	bin  *BinaryServer
}

// StartBenchFleet boots n bench agents on the given transport.
func StartBenchFleet(n int, kind TransportKind) (*BenchFleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ctrlplane: bench fleet needs at least one agent")
	}
	f := &BenchFleet{}
	for i := 0; i < n; i++ {
		a, err := NewAgent(AgentConfig{ID: i, Backend: benchBackend{}, Version: "bench"})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Agents = append(f.Agents, a)
	}
	if kind == TransportBinary {
		eps := make(map[int]CtrlEndpoint, n)
		for i, a := range f.Agents {
			eps[i] = a
		}
		srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: eps})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.bin = srv
		for i := range f.Agents {
			f.refs = append(f.refs, AgentRef{ID: i, URL: srv.URL()})
		}
		return f, nil
	}
	mux := http.NewServeMux()
	for i, a := range f.Agents {
		prefix := "/a/" + strconv.Itoa(i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, NewHandler(a)))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, err
	}
	f.ln = ln
	f.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = f.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := range f.Agents {
		f.refs = append(f.refs, AgentRef{ID: i, URL: base + "/a/" + strconv.Itoa(i)})
	}
	return f, nil
}

// Refs returns the fleet's agent references.
func (f *BenchFleet) Refs() []AgentRef { return append([]AgentRef(nil), f.refs...) }

// Close shuts the fleet down.
func (f *BenchFleet) Close() {
	if f.srv != nil {
		_ = f.srv.Close()
	}
	if f.ln != nil {
		_ = f.ln.Close()
	}
	if f.bin != nil {
		f.bin.Close()
	}
}

// WireBenchOptions parameterizes one benchmark cell.
type WireBenchOptions struct {
	// Agents is the fleet size (the matrix axis: 10 / 100 / 1000).
	Agents int
	// Transport picks the wire under test.
	Transport TransportKind
	// Runs is the sample count; the minimum across runs is reported
	// (default 5, the policy floor).
	Runs int
	// Intervals is the number of measured control intervals per run
	// (default 10).
	Intervals int
	// Warmup intervals excluded from measurement (default 2: the
	// first assign plus the first renewal, so steady state is what is
	// timed).
	Warmup int
	// MaxInFlight is the coordinator's fan-out width (default 64 —
	// identical for both transports, and within the JSON keep-alive
	// pool so neither wire is starved of conns).
	MaxInFlight int
}

func (o *WireBenchOptions) defaults() {
	if o.Runs <= 0 {
		o.Runs = 5
	}
	if o.Intervals <= 0 {
		o.Intervals = 10
	}
	if o.Warmup <= 0 {
		o.Warmup = 2
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
}

// WireBenchCell is one (transport, fleet size) measurement — the unit
// committed to BENCH_ctrlplane.json.
type WireBenchCell struct {
	Transport string `json:"transport"`
	Agents    int    `json:"agents"`
	Runs      int    `json:"runs"`
	Intervals int    `json:"intervals_per_run"`

	// NsPerInterval is the minimum across runs of mean wall time per
	// control interval.
	NsPerInterval int64 `json:"ns_per_interval"`
	// AllocsPerAgentInterval is the minimum across runs of heap
	// allocations (runtime Mallocs delta, both sides of the loopback
	// wire) per agent per interval.
	AllocsPerAgentInterval float64 `json:"allocs_per_agent_interval"`

	// ConnDials / ConnReuses are the binary pool's whole-cell ledger
	// (zero on JSON cells, whose reuse is asserted at the listener).
	ConnDials  uint64 `json:"conn_dials"`
	ConnReuses uint64 `json:"conn_reuses"`
	// BatchFrames counts batch frames sent across the whole cell
	// (zero on JSON cells).
	BatchFrames int `json:"batch_frames"`
}

// RunWireBench measures one cell: a constant cap replayed over a bench
// fleet in steady state, so every measured interval is one scrape plus
// one coalesced renewal per agent (batched into two frames per interval
// on the binary wire).
func RunWireBench(opts WireBenchOptions) (WireBenchCell, error) {
	opts.defaults()
	flt, err := StartBenchFleet(opts.Agents, opts.Transport)
	if err != nil {
		return WireBenchCell{}, err
	}
	defer flt.Close()
	coord, err := New(Config{
		Agents:      flt.Refs(),
		Strategy:    StrategyEqual,
		LeaseIv:     3, // longer than the control interval: steady state renews
		IntervalS:   300,
		MaxInFlight: opts.MaxInFlight,
	})
	if err != nil {
		return WireBenchCell{}, err
	}
	defer coord.Close()

	ctx := context.Background()
	capW := 100 * float64(opts.Agents) // 100 W/agent: inside (idle floor, nameplate)
	now := 0.0
	step := func() error {
		res, err := coord.Step(ctx, now, capW)
		if err != nil {
			return err
		}
		if res.ScrapeErrs != 0 || res.AssignErrs != 0 {
			return fmt.Errorf("ctrlplane: bench interval at t=%g had RPC errors (%d scrape, %d assign): run invalid",
				now, res.ScrapeErrs, res.AssignErrs)
		}
		for i, g := range res.Granted {
			if !g {
				return fmt.Errorf("ctrlplane: bench agent %d not granted at t=%g: run invalid", i, now)
			}
		}
		now += 300
		return nil
	}

	for i := 0; i < opts.Warmup; i++ {
		if err := step(); err != nil {
			return WireBenchCell{}, err
		}
	}

	cell := WireBenchCell{
		Transport: opts.Transport.String(),
		Agents:    opts.Agents,
		Runs:      opts.Runs,
		Intervals: opts.Intervals,
	}
	var ms runtime.MemStats
	for run := 0; run < opts.Runs; run++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < opts.Intervals; i++ {
			if err := step(); err != nil {
				return WireBenchCell{}, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)

		ns := elapsed.Nanoseconds() / int64(opts.Intervals)
		allocs := float64(ms.Mallocs-mallocs0) / float64(opts.Intervals*opts.Agents)
		if run == 0 || ns < cell.NsPerInterval {
			cell.NsPerInterval = ns
		}
		if run == 0 || allocs < cell.AllocsPerAgentInterval {
			cell.AllocsPerAgentInterval = allocs
		}
	}

	// Steady state must be renewals: a cell where agents re-applied
	// budgets was not measuring the coalesced-renewal path.
	for i, a := range flt.Agents {
		if n := a.Assigns(); n != 1 {
			return WireBenchCell{}, fmt.Errorf("ctrlplane: bench agent %d applied %d assigns; steady state must renew", i, n)
		}
	}
	st := coord.Stats()
	cell.BatchFrames = st.BatchFrames
	ws := coord.WireStats()
	cell.ConnDials = ws.BinaryDials
	cell.ConnReuses = ws.BinaryReuses
	if opts.Transport == TransportBinary {
		// The pooled-conn fix under test: a whole cell over one
		// listener must not re-dial per interval, let alone per RPC.
		if ws.BinaryDials > 4 {
			return WireBenchCell{}, fmt.Errorf("ctrlplane: binary cell dialed %d conns; the pool is not reusing", ws.BinaryDials)
		}
		if want := 2 * (opts.Warmup + opts.Runs*opts.Intervals); st.BatchFrames != want {
			return WireBenchCell{}, fmt.Errorf("ctrlplane: binary cell sent %d batch frames, want %d", st.BatchFrames, want)
		}
	}
	return cell, nil
}
