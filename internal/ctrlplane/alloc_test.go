package ctrlplane

import (
	"context"
	"runtime"
	"testing"

	"powerstruggle/internal/telemetry"
)

// allocFleet is the counted gate's fleet: n demand-backed agents (a
// static 9-point curve each, shipped on every scrape) and an
// equal-strategy coordinator warmed into steady state. The agents share
// one listener, so every interval is two batch frames, or with perAgent
// each has its own, so every interval is two one-entry frames per agent.
type allocFleet struct {
	coord *Coordinator
	n     int
	iv    int
	capW  float64
}

func startAllocFleet(tb testing.TB, n int, hub *telemetry.Hub, perAgent bool) *allocFleet {
	tb.Helper()
	serve := func(eps map[int]CtrlEndpoint) string {
		srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: eps})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(srv.Close)
		return srv.URL()
	}
	refs := make([]AgentRef, n)
	shared := make(map[int]CtrlEndpoint, n)
	for i := range refs {
		a, err := NewAgent(AgentConfig{ID: i, Backend: newDemandBackend(50), Version: "alloc"})
		if err != nil {
			tb.Fatal(err)
		}
		refs[i].ID = i
		if perAgent {
			refs[i].URL = serve(map[int]CtrlEndpoint{i: a})
		} else {
			shared[i] = a
		}
	}
	if !perAgent {
		url := serve(shared)
		for i := range refs {
			refs[i].URL = url
		}
	}
	coord, err := New(Config{Agents: refs, Strategy: StrategyEqual, LeaseIv: 2, IntervalS: 1, Telemetry: hub})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(coord.Close)
	f := &allocFleet{coord: coord, n: n}
	// Rehydration, the first assign, then renewals and a second assign:
	// every buffer on the path has seen both frame kinds.
	for _, assign := range []bool{false, true, false, false, true, false} {
		f.step(tb, assign)
	}
	return f
}

// step drives one interval: a renew interval repeats the cap (every
// grant rides a coalesced renewal), an assign interval moves it (every
// budget is re-assigned).
func (f *allocFleet) step(tb testing.TB, assign bool) StepResult {
	tb.Helper()
	f.iv++
	if assign || f.capW == 0 {
		f.capW = float64(f.n) * (50 + float64(f.iv%7))
	}
	res, err := f.coord.Step(context.Background(), float64(f.iv), f.capW)
	if err != nil {
		tb.Fatal(err)
	}
	if f.iv > 1 && (res.ScrapeErrs != 0 || res.AssignErrs != 0) {
		tb.Fatalf("interval %d: %d scrape, %d assign errors: %v", f.iv, res.ScrapeErrs, res.AssignErrs, res.Err)
	}
	return res
}

// stepKinds are the two steady-state intervals: every grant renewed,
// every budget re-assigned.
var stepKinds = []struct {
	name   string
	assign bool
}{{"renew", false}, {"assign", true}}

// measure runs iters intervals of one kind and returns the heap bytes
// and objects they allocated, process-wide (agents, server and
// coordinator share the test process, as they share psperf's).
func (f *allocFleet) measure(tb testing.TB, assign bool, iters int) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		f.step(tb, assign)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// Committed bounds of TestStepSteadyStateAllocs. The 256-agent fleet
// behind one listener measures 14.3 B per member and 21 objects an
// interval on go1.24, renew and assign alike: the StepResult the caller
// keeps — a float64 and two bools per member — plus a constant handful
// of per-RPC values (attempt context, timer, fan-out channel and
// goroutines). The bytes bound sits a quarter above that; the objects
// bound leaves a few more for toolchains whose contexts and timers cost
// an object apiece more. Before the wire path owned its buffers this
// fleet read 2090 B per member and 631 objects.
//
// The 64-agent fleet with a listener per agent pays those per-RPC values
// once per member and frame: it measures 680 B and 12.15 objects per
// member (43.5 KB and 778 objects an interval) on go1.24, renew and
// assign alike. Its bounds sit a fifth above that.
const (
	maxStepBytesPerMember = 18
	maxStepObjects        = 30

	maxPerAgentStepBytesPerMember   = 816
	maxPerAgentStepObjectsPerMember = 14.5
)

// TestStepSteadyStateAllocs is the counted gate on the wire path: no
// wall clock, so it holds on a loaded CI box. A steady-state interval
// must allocate O(1) objects and only the caller's StepResult per
// member when the fleet shares a listener, and a constant per member
// when every agent has its own.
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the product's")
	}
	t.Run("shared-listener", func(t *testing.T) {
		const agents, iters = 256, 50
		f := startAllocFleet(t, agents, nil, false)
		for _, kind := range stepKinds {
			bytes, objects := f.measure(t, kind.assign, iters)
			t.Logf("%s: %.0f B/interval (%.1f B/member), %.1f objects/interval", kind.name, bytes, bytes/agents, objects)
			if perMember := bytes / agents; perMember > maxStepBytesPerMember {
				t.Errorf("%s interval allocates %.1f B per member, bound %d", kind.name, perMember, maxStepBytesPerMember)
			}
			if objects > maxStepObjects {
				t.Errorf("%s interval allocates %.1f objects, bound %d", kind.name, objects, maxStepObjects)
			}
		}
	})
	t.Run("listener-per-agent", func(t *testing.T) {
		const agents, iters = 64, 50
		f := startAllocFleet(t, agents, nil, true)
		for _, kind := range stepKinds {
			bytes, objects := f.measure(t, kind.assign, iters)
			t.Logf("%s: %.0f B/interval (%.1f B/member), %.1f objects/interval (%.2f/member)", kind.name, bytes, bytes/agents, objects, objects/agents)
			if perMember := bytes / agents; perMember > maxPerAgentStepBytesPerMember {
				t.Errorf("%s interval allocates %.1f B per member, bound %d", kind.name, perMember, maxPerAgentStepBytesPerMember)
			}
			if perMember := objects / agents; perMember > maxPerAgentStepObjectsPerMember {
				t.Errorf("%s interval allocates %.2f objects per member, bound %g", kind.name, perMember, maxPerAgentStepObjectsPerMember)
			}
		}
	})
}

// TestTelemetryHubAddsNoPerMemberAllocs: the per-member gauges are
// resolved when a member is admitted, so a hub-enabled steady-state
// interval allocates within 5 % of a hub-disabled one.
func TestTelemetryHubAddsNoPerMemberAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the product's")
	}
	const agents, iters = 256, 50
	_, off := startAllocFleet(t, agents, nil, false).measure(t, false, iters)
	_, on := startAllocFleet(t, agents, telemetry.New(0), false).measure(t, false, iters)
	t.Logf("objects/interval: hub off %.1f, hub on %.1f", off, on)
	// The hub's own per-step work is a constant 7 objects (one trace
	// instant with three boxed attributes, the rpcs counter's label key
	// per RPC); allow that, and 5 %, but no per-member term — which was
	// 483 objects on this fleet when every gauge was looked up by label.
	if on > off*1.05+8 {
		t.Errorf("hub-enabled interval allocates %.1f objects, hub-disabled %.1f: more than 5 %% + 8 apart", on, off)
	}
}

// BenchmarkCoordinatorStep times one steady-state interval of each
// kind on the gate's fleet; CI runs it for the allocation columns.
func BenchmarkCoordinatorStep(b *testing.B) {
	for _, kind := range stepKinds {
		b.Run(kind.name, func(b *testing.B) {
			f := startAllocFleet(b, 256, nil, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step(b, kind.assign)
			}
		})
	}
}
