// Package daemon wraps the mediated server in a long-running service
// with an HTTP control surface: admit applications, change the power cap
// (the messages the paper's Accountant receives for events E1 and E2),
// and observe budgets, knob settings, battery state and the event log.
// The simulated platform advances in wall-clock time, so the daemon
// behaves like the paper's prototype did on its Xeon — watched live
// through curl instead of IPMI.
package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"powerstruggle/internal/accountant"
	"powerstruggle/internal/allocator"
	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

// Config parameterizes the daemon.
type Config struct {
	// HW is the platform (zero value: the paper's Table I machine).
	HW simhw.Config
	// Policy is the mediation scheme (default App+Res-Aware).
	Policy policy.Kind
	// InitialCapW is the cap at boot (default: the platform nameplate).
	InitialCapW float64
	// BatteryJ, when positive, attaches a lead-acid ESD.
	BatteryJ float64
	// Faults, when non-nil with any rate enabled, runs the mediated
	// server under the seed-driven fault injector with the hardened
	// control loop.
	Faults *faults.Config
	// MaxEvents and MaxSamples bound the in-memory logs of a
	// long-running daemon (0: the accountant default, 4096).
	MaxEvents  int
	MaxSamples int
	// Telemetry, when non-nil, instruments the whole control loop: the
	// hub's registry is appended to /metrics (after the legacy
	// powerstruggle_* series) and its trace is served on GET /trace as
	// Chrome trace_event JSON.
	Telemetry *telemetry.Hub
	// Version overrides the build version reported on /healthz and in
	// control-plane scrapes (default: buildinfo.Version()).
	Version string
}

// Daemon is the running service.
type Daemon struct {
	mu  sync.Mutex
	sim *accountant.Sim
	lib *workload.Library
	hw  simhw.Config
	// simTime tracks how much simulated time has been consumed.
	simTime float64
	// pendingCapW is the last cap scheduled since the simulation last
	// stepped (0: none) — the cap the next step will put in force.
	pendingCapW float64
	// lastAdvance is the wall-clock time the simulation last moved — a
	// stalled ticker shows up on /healthz.
	lastAdvance time.Time
	// advErr latches the first simulation error; a daemon whose sim
	// died keeps serving telemetry but reports unhealthy.
	advErr  error
	hub     *telemetry.Hub
	version string
	// ctrl, when non-nil, is the control-plane agent in front of the
	// simulation (EnableCtrl). Lock order is agent → d.mu: never call
	// into it holding d.mu.
	ctrl *ctrlplane.Agent
}

// New builds a daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.HW.Sockets == 0 {
		cfg.HW = simhw.DefaultConfig()
	}
	if cfg.Policy == 0 {
		cfg.Policy = policy.AppResAware
	}
	if cfg.InitialCapW <= 0 {
		cfg.InitialCapW = cfg.HW.MaxServerWatts()
	}
	lib, err := workload.NewLibrary(cfg.HW)
	if err != nil {
		return nil, err
	}
	var dev *esd.Device
	if cfg.BatteryJ > 0 {
		dev, err = esd.NewDevice(esd.LeadAcid(cfg.BatteryJ), 0.6)
		if err != nil {
			return nil, err
		}
	}
	acfg := accountant.Config{
		HW: cfg.HW, Policy: cfg.Policy, Library: lib,
		InitialCapW: cfg.InitialCapW, Device: dev,
		ReallocSeconds: 0.8, SampleEvery: 0.25,
		MaxEvents: cfg.MaxEvents, MaxSamples: cfg.MaxSamples,
	}
	acfg.Coord.Faults = cfg.Faults
	acfg.Coord.Telemetry = cfg.Telemetry
	allocator.EnableTelemetry(cfg.Telemetry.Registry())
	sim, err := accountant.NewSim(acfg)
	if err != nil {
		return nil, err
	}
	version := cfg.Version
	if version == "" {
		version = buildinfo.Version()
	}
	return &Daemon{sim: sim, lib: lib, hw: cfg.HW, hub: cfg.Telemetry,
		lastAdvance: time.Now(), version: version}, nil
}

// Advance runs the mediated server forward by dt simulated seconds. The
// command loop calls this from a wall-clock ticker; tests call it
// directly.
func (d *Daemon) Advance(dt float64) error {
	if err := d.step(dt); err != nil {
		return err
	}
	return d.ctrlTick()
}

func (d *Daemon) step(dt float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dt <= 0 {
		return fmt.Errorf("daemon: advance of %g s", dt)
	}
	if err := d.sim.Run(dt); err != nil {
		if d.advErr == nil {
			d.advErr = err
		}
		return err
	}
	d.simTime += dt
	d.pendingCapW = 0
	d.lastAdvance = time.Now()
	return nil
}

// AdmitRequest is the POST /admit body.
type AdmitRequest struct {
	// App names one of the library benchmarks.
	App string `json:"app"`
	// Seconds of uncapped busy time the job carries (0: endless).
	Seconds float64 `json:"seconds"`
	// Weight scales the application's objective term (0 means 1).
	Weight float64 `json:"weight,omitempty"`
	// FloorPerf is an SLO floor on normalized performance (0 means
	// best-effort).
	FloorPerf float64 `json:"floorPerf,omitempty"`
}

// CapRequest is the POST /cap body.
type CapRequest struct {
	Watts float64 `json:"watts"`
}

// Status is the GET /status response.
type Status struct {
	SimSeconds float64     `json:"simSeconds"`
	CapW       float64     `json:"capW"`
	GridW      float64     `json:"gridW"`
	SoC        float64     `json:"soc"`
	Apps       []StatusApp `json:"apps"`
	Waiting    int         `json:"waiting"`
}

// StatusApp is one application's live state.
type StatusApp struct {
	Name    string  `json:"name"`
	PowerW  float64 `json:"powerW"`
	BudgetW float64 `json:"budgetW"`
	Knobs   string  `json:"knobs"`
}

// status snapshots the latest sample.
func (d *Daemon) status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{SimSeconds: d.simTime}
	last := d.sim.LastSample()
	st.CapW = last.CapW
	st.GridW = last.GridW
	st.SoC = last.SoC
	st.Waiting = d.sim.Waiting()
	for _, a := range last.Apps {
		st.Apps = append(st.Apps, StatusApp{
			Name: a.Name, PowerW: a.PowerW, BudgetW: a.BudgetW, Knobs: a.Knobs.String(),
		})
	}
	return st
}

// Health is the GET /healthz response: liveness of the simulation loop
// plus the robustness counters of the hardened mediation path.
type Health struct {
	OK         bool    `json:"ok"`
	SimSeconds float64 `json:"simSeconds"`
	// WallSinceAdvanceS is wall-clock seconds since the simulation last
	// moved; a stalled or dead ticker grows it without bound.
	WallSinceAdvanceS float64 `json:"wallSinceAdvanceS"`
	CapW              float64 `json:"capW"`
	Apps              int     `json:"apps"`
	Waiting           int     `json:"waiting"`
	// Degraded reports the accountant's fair-share fallback (heartbeat
	// telemetry lost).
	Degraded bool `json:"degraded"`
	// Watchdog state of the cap-breach clamp.
	WatchdogEngaged bool `json:"watchdogEngaged"`
	WatchdogEngages int  `json:"watchdogEngages"`
	CapBreachSteps  int  `json:"capBreachSteps"`
	MaxBreachRun    int  `json:"maxBreachRun"`
	// FaultEvents counts logged fault/recovery events; DroppedEvents
	// counts entries evicted from the bounded logs.
	FaultEvents   int    `json:"faultEvents"`
	DroppedEvents int    `json:"droppedEvents"`
	Err           string `json:"err,omitempty"`
	// Version is the binary's build version (module version + VCS
	// revision).
	Version string `json:"version"`
	// Control-plane lease state, present when the daemon is joined to
	// a coordinator (EnableCtrl): CtrlFenced reports a lapsed draw
	// lease currently clamping the cap; CtrlFences counts lapses;
	// CtrlStaleDrops counts deduplicated stale/duplicate assigns.
	CtrlEnabled    bool `json:"ctrlEnabled"`
	CtrlFenced     bool `json:"ctrlFenced"`
	CtrlFences     int  `json:"ctrlFences"`
	CtrlStaleDrops int  `json:"ctrlStaleDrops"`
	// CtrlEpoch is the highest coordinator epoch this daemon has
	// applied a grant from (0 before the first grant); CtrlEpochDrops
	// counts grants and renewals refused for carrying an older epoch —
	// nonzero means a deposed coordinator was still talking to us.
	CtrlEpoch      uint64 `json:"ctrlEpoch"`
	CtrlEpochDrops int    `json:"ctrlEpochDrops"`
	// Lease freshness, so external drills can assert degradation
	// without scraping /ctrl: CtrlLeased reports a live draw lease,
	// CtrlLeaseExpiresInS the wall-clock seconds until it lapses at the
	// coordinator's nominal cadence (0 when no live lease is held), and
	// CtrlLeaseExpired distinguishes a lapsed lease from one never
	// granted.
	CtrlLeased          bool    `json:"ctrlLeased"`
	CtrlLeaseExpiresInS float64 `json:"ctrlLeaseExpiresInS"`
	CtrlLeaseExpired    bool    `json:"ctrlLeaseExpired"`
	// Protocol-clock state: the highest coordinator interval observed
	// and the skew between
	// the coordinator's cadence and this daemon's clock, in intervals.
	CtrlIv          uint64  `json:"ctrlIv,omitempty"`
	CtrlClockSkewIv float64 `json:"ctrlClockSkewIv,omitempty"`
	// Safe-mode degradation state: CtrlSafeMode reports the leaderless
	// hold-and-decay in progress, CtrlSafeModeEntries counts lapses
	// that entered it, and CtrlSafeModeCapW is the cap the decay last
	// clamped (the held cap until the hold window passes).
	CtrlSafeMode        bool    `json:"ctrlSafeMode"`
	CtrlSafeModeEntries int     `json:"ctrlSafeModeEntries"`
	CtrlSafeModeCapW    float64 `json:"ctrlSafeModeCapW"`
	// Online utility learning state, present when CtrlConfig.Learn is
	// set: CtrlLearning flags the mode, CtrlCurveConf the learned
	// curve's coverage confidence (exactly 1 once converged), and
	// CtrlCurveCells its observed cell count.
	CtrlLearning   bool    `json:"ctrlLearning,omitempty"`
	CtrlCurveConf  float64 `json:"ctrlCurveConf,omitempty"`
	CtrlCurveCells int     `json:"ctrlCurveCells,omitempty"`
}

// health snapshots liveness and robustness state.
func (d *Daemon) health() Health {
	// The agent snapshot comes first: its lock orders before d.mu.
	var cs ctrlplane.AgentStatus
	if d.ctrl != nil {
		cs = d.ctrl.Status()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ex := d.sim.Executor()
	h := Health{
		OK:                d.advErr == nil,
		SimSeconds:        d.simTime,
		WallSinceAdvanceS: time.Since(d.lastAdvance).Seconds(),
		CapW:              ex.Cap(),
		Apps:              ex.Apps(),
		Waiting:           d.sim.Waiting(),
		Degraded:          d.sim.Degraded(),
		WatchdogEngaged:   ex.WatchdogEngaged(),
		WatchdogEngages:   ex.WatchdogEngages(),
		CapBreachSteps:    ex.CapBreachSteps(),
		MaxBreachRun:      ex.MaxBreachRun(),
		DroppedEvents:     d.sim.EventsDropped(),
	}
	if log := ex.FaultLog(); log != nil {
		h.FaultEvents = log.Total()
		h.DroppedEvents += log.Dropped()
	}
	if d.advErr != nil {
		h.Err = d.advErr.Error()
	}
	h.Version = d.version
	if d.ctrl != nil {
		h.CtrlEnabled = true
		h.CtrlFenced = cs.Fenced
		h.CtrlFences = cs.Fences
		h.CtrlStaleDrops = cs.StaleDrops
		h.CtrlEpoch = cs.Epoch
		h.CtrlEpochDrops = cs.EpochDrops
		h.CtrlLeased = cs.Leased
		h.CtrlLeaseExpiresInS = cs.LeaseExpiresInS
		h.CtrlLeaseExpired = cs.LeaseExpired
		h.CtrlIv = cs.Iv
		h.CtrlClockSkewIv = cs.ClockSkewIv
		h.CtrlSafeMode = cs.SafeMode
		h.CtrlSafeModeEntries = cs.SafeModeEntries
		if cs.SafeMode {
			h.CtrlSafeModeCapW = cs.CapW
		}
		h.CtrlLearning = cs.Learning
		h.CtrlCurveConf = cs.CurveConf
		h.CtrlCurveCells = cs.CurveCells
	}
	return h
}

// Recover wraps a handler with panic recovery: a handler that panics
// returns 500 instead of killing the whole control surface.
func Recover(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// Handler returns the daemon's HTTP API, wrapped in panic recovery.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		h := d.health()
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	mux.HandleFunc("/faults", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		d.mu.Lock()
		events := d.sim.Executor().FaultEvents()
		d.mu.Unlock()
		if events == nil {
			events = []faults.Event{}
		}
		writeJSON(w, events)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, d.status())
	})
	mux.HandleFunc("/apps", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, d.lib.Names())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		d.mu.Lock()
		events := d.sim.Events()
		d.mu.Unlock()
		type ev struct {
			T      float64 `json:"t"`
			Kind   string  `json:"kind"`
			App    string  `json:"app,omitempty"`
			CapW   float64 `json:"capW"`
			Detail string  `json:"detail"`
		}
		out := make([]ev, 0, len(events))
		for _, e := range events {
			out = append(out, ev{T: e.T, Kind: e.Kind.String(), App: e.App, CapW: e.CapW, Detail: e.Detail})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/admit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req AdmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.Admit(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/cap", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req CapRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.SetCap(req.Watts); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		st := d.status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprintf(w, "# HELP powerstruggle_grid_watts Current grid draw.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_grid_watts gauge\n")
		fmt.Fprintf(w, "powerstruggle_grid_watts %g\n", st.GridW)
		fmt.Fprintf(w, "# HELP powerstruggle_cap_watts Current power cap.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_cap_watts gauge\n")
		fmt.Fprintf(w, "powerstruggle_cap_watts %g\n", st.CapW)
		fmt.Fprintf(w, "# HELP powerstruggle_battery_soc Battery state of charge.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_battery_soc gauge\n")
		fmt.Fprintf(w, "powerstruggle_battery_soc %g\n", st.SoC)
		fmt.Fprintf(w, "# HELP powerstruggle_apps Co-located applications.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_apps gauge\n")
		fmt.Fprintf(w, "powerstruggle_apps %d\n", len(st.Apps))
		for _, a := range st.Apps {
			fmt.Fprintf(w, "powerstruggle_app_watts{app=%q} %g\n", a.Name, a.PowerW)
			fmt.Fprintf(w, "powerstruggle_app_budget_watts{app=%q} %g\n", a.Name, a.BudgetW)
		}
		h := d.health()
		fmt.Fprintf(w, "# HELP powerstruggle_watchdog_engaged Cap-breach clamp currently engaged.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_watchdog_engaged gauge\n")
		fmt.Fprintf(w, "powerstruggle_watchdog_engaged %d\n", boolToInt(h.WatchdogEngaged))
		fmt.Fprintf(w, "# HELP powerstruggle_cap_breach_steps_total Control intervals over the cap.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_cap_breach_steps_total counter\n")
		fmt.Fprintf(w, "powerstruggle_cap_breach_steps_total %d\n", h.CapBreachSteps)
		fmt.Fprintf(w, "# HELP powerstruggle_fault_events_total Logged fault and recovery events.\n")
		fmt.Fprintf(w, "# TYPE powerstruggle_fault_events_total counter\n")
		fmt.Fprintf(w, "powerstruggle_fault_events_total %d\n", h.FaultEvents)
		// The instrumented control loop's registry follows the legacy
		// series; scrapers see one page.
		if reg := d.hub.Registry(); reg != nil {
			_ = reg.WritePrometheus(w)
		}
	})
	if d.ctrl != nil {
		// A read-only JSON rendering of the report frame, for curl; the
		// control plane itself speaks frames (CtrlEndpoint).
		mux.HandleFunc("/ctrl/report", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				http.Error(w, "GET only", http.StatusMethodNotAllowed)
				return
			}
			rep, err := d.ctrl.Report()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			writeJSON(w, rep)
		})
	}
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		tr := d.hub.Tracer()
		if tr == nil {
			http.Error(w, "telemetry disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteChromeTrace(w)
	})
	return Recover(mux)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Admit schedules an application now (event E2).
func (d *Daemon) Admit(req AdmitRequest) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, err := d.lib.App(req.App)
	if err != nil {
		return err
	}
	if req.Seconds < 0 {
		return fmt.Errorf("daemon: negative job length %g", req.Seconds)
	}
	beats := 0.0
	if req.Seconds > 0 {
		beats = p.NoCapRate(d.hw) * req.Seconds
	}
	weight := req.Weight
	if weight == 0 {
		weight = 1
	}
	return d.sim.AddArrivalCritical(d.simTime, p, beats, weight, req.FloorPerf)
}

// SetCap changes the power cap now (event E1).
func (d *Daemon) SetCap(watts float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.scheduleCapLocked(watts)
}

// scheduleCapLocked queues a cap change at the current sim time; the
// next simulation step puts it in force.
func (d *Daemon) scheduleCapLocked(watts float64) error {
	if err := d.sim.AddCapChange(d.simTime, watts); err != nil {
		return err
	}
	d.pendingCapW = watts
	return nil
}

// upcomingCapLocked is the cap in force once the simulation next steps:
// the last one scheduled since it stepped, else the executor's.
func (d *Daemon) upcomingCapLocked() float64 {
	if d.pendingCapW != 0 {
		return d.pendingCapW
	}
	return d.sim.Executor().Cap()
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
