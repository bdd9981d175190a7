package ctrlplane

import (
	"fmt"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
)

// SimFleet is N in-process agents served over real loopback TCP, each
// backed by one server of a shared cluster evaluator. It is the harness
// behind the parity and HA drills and the parity/soak tests: the coordinator
// talks to it over the same wire it would use against remote psd
// daemons, but every agent's planning is the pure simulation — so a
// zero-fault replay must reproduce the simulation's budget sequence
// watt for watt.
type SimFleet struct {
	Agents []*Agent

	refs []AgentRef
	srvs []*BinaryServer
}

// FleetOptions parameterizes a simulated fleet beyond the defaults.
type FleetOptions struct {
	// Version is reported by every agent (build audit).
	Version string
	// FenceCapW is each agent's fail-safe cap (default 0: deep sleep).
	FenceCapW float64
	// SafeMode, when enabled, gives every agent graceful leaderless
	// degradation instead of the fence cliff.
	SafeMode SafeModeConfig
	// SharedListener hosts the whole fleet behind one listener, so the
	// coordinator's scrapes and grants each ride a single batch frame.
	// The default gives every agent its own listener — its own host:port
	// for a scripted NetInjector.SetDown partition, one one-entry batch
	// frame per agent and phase on the wire.
	SharedListener bool
	// Learn, when non-nil, makes every agent characterize its utility
	// curve online instead of trusting the evaluator's pre-computed one
	// — the cold-start scenario's fleet. Each agent learns from its own
	// seed (Learn.Seed + server index) so replays stay deterministic.
	Learn *cf.OnlineConfig
}

// StartSimFleet boots one agent per evaluator server on loopback
// listeners. Agents boot fenced at 0 W (deep sleep) until their first
// grant, matching the cluster replay's "dead servers draw nothing".
func StartSimFleet(ev *cluster.Evaluator, version string) (*SimFleet, error) {
	return StartSimFleetOpts(ev, FleetOptions{Version: version})
}

// StartSimFleetOpts boots a simulated fleet with explicit options —
// the scenario runner's entry point, where fence caps and safe-mode
// degradation matter.
func StartSimFleetOpts(ev *cluster.Evaluator, opts FleetOptions) (*SimFleet, error) {
	f := &SimFleet{}
	for i := 0; i < ev.Servers(); i++ {
		var learn *cf.OnlineConfig
		if opts.Learn != nil {
			lc := *opts.Learn
			lc.Seed = opts.Learn.Seed + int64(i)
			learn = &lc
		}
		a, err := NewAgent(AgentConfig{
			ID:        i,
			Backend:   NewSimBackend(ev, i),
			FenceCapW: opts.FenceCapW,
			SafeMode:  opts.SafeMode,
			Learn:     learn,
			Version:   opts.Version,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Agents = append(f.Agents, a)
	}
	if len(f.Agents) == 0 {
		f.Close()
		return nil, fmt.Errorf("ctrlplane: evaluator has no servers")
	}
	// One listener for the whole fleet, or one per agent.
	per := 1
	if opts.SharedListener {
		per = len(f.Agents)
	}
	for lo := 0; lo < len(f.Agents); lo += per {
		eps := make(map[int]CtrlEndpoint, per)
		for _, a := range f.Agents[lo : lo+per] {
			eps[a.ID()] = a
		}
		srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: eps})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		for _, a := range f.Agents[lo : lo+per] {
			f.refs = append(f.refs, AgentRef{ID: a.ID(), URL: srv.URL()})
		}
	}
	return f, nil
}

// BinaryServer returns the fleet's first listener — the only one on a
// SharedListener fleet, whose conns the chaos drills bounce.
func (f *SimFleet) BinaryServer() *BinaryServer { return f.srvs[0] }

// Refs returns the fleet's agent references, in server-index order.
func (f *SimFleet) Refs() []AgentRef {
	return append([]AgentRef(nil), f.refs...)
}

// Tick advances every agent's local clock to trace time t — the
// in-process stand-in for each daemon's own ticker, which is what
// fences a stale lease even when the coordinator's scrapes are lost.
func (f *SimFleet) Tick(t float64) error {
	for _, a := range f.Agents {
		if err := a.Tick(t); err != nil {
			return err
		}
	}
	return nil
}

// FleetGridW sums the fleet's current grid draw — what a power meter on
// the cluster's feed would read. Fenced agents are at their fence cap's
// draw (0 W for the deep-sleep default).
func (f *SimFleet) FleetGridW() float64 {
	var sum float64
	for _, a := range f.Agents {
		sum += a.Status().GridW
	}
	return sum
}

// Close shuts the listeners down.
func (f *SimFleet) Close() {
	for _, srv := range f.srvs {
		srv.Close()
	}
}
