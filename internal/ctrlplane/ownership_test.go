package ctrlplane

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/faults"
)

// churnEndpoint fronts a real agent and rewrites every scrape so that
// nothing a decode destination could cache stays put: the version
// string and the curve change with the interval, and a rotating quarter
// of the fleet answers with an error instead.
type churnEndpoint struct {
	*Agent
	iv *atomic.Int64
}

func (e churnEndpoint) Scrape(t float64, hasT bool) (Report, error) {
	rep, err := e.Agent.Scrape(t, hasT)
	if err != nil {
		return rep, err
	}
	k := int(e.iv.Load()) + rep.Server
	if k%4 == 0 {
		return Report{}, fmt.Errorf("interval %d: agent %d is sulking", k-rep.Server, rep.Server)
	}
	rep.Version = fmt.Sprintf("build-%d", k)
	curve := append([]cluster.CapPoint(nil), rep.UtilityCurve...)
	for i := range curve {
		curve[i].Perf *= 1 + 0.01*float64(k%5)
	}
	rep.UtilityCurve, rep.CurveVer = curve, curveVersion(curve)
	return rep, nil
}

// kept is everything one interval handed out or stored, held two ways:
// the values themselves (slices still sharing whatever they shared when
// the step returned) and a deep copy taken at that moment.
type kept struct {
	res, resCopy       StepResult
	curves, curvesCopy [][]cluster.CapPoint
	rollup, rollupCopy []cluster.CapPoint
	events, eventsCopy []faults.Event
}

// check fails the test if anything kept has changed since it was
// copied. It only reads, so it can run beside the next interval: under
// the race detector, a fan-out goroutine decoding into memory this reads
// is a reported race even if the bytes happen to match.
func (k *kept) check(t *testing.T, when string) {
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"StepResult.Budgets", k.res.Budgets, k.resCopy.Budgets},
		{"StepResult.Granted", k.res.Granted, k.resCopy.Granted},
		{"StepResult.Alive", k.res.Alive, k.resCopy.Alive},
		{"member curves", k.curves, k.curvesCopy},
		{"shard rollup", k.rollup, k.rollupCopy},
		{"fault log", k.events, k.eventsCopy},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: %s of interval t=%g changed:\n got %v\nwant %v", when, c.what, k.res.T, c.got, c.want)
		}
	}
	if (k.res.Err == nil) != (k.resCopy.Err == nil) || (k.res.Err != nil && k.res.Err.Error() != k.resCopy.Err.Error()) {
		t.Errorf("%s: StepResult.Err of interval t=%g changed: %v, was %v", when, k.res.T, k.res.Err, k.resCopy.Err)
	}
}

// TestStepOutputsSurviveBufferReuse is the ownership gate of the
// garbage-free wire path: every frame is read, decoded and answered in
// buffers the conns and the coordinator reuse, so nothing an interval
// hands out or stores may alias them. A fleet whose members change
// curve, version and error state every interval — six behind one
// listener, two on their own (one-entry batch frames) — runs under a
// fault injector that drops and duplicates exchanges; while interval
// k+1 overwrites every buffer, a reader walks everything interval k
// left behind. Run under -race in CI.
func TestStepOutputsSurviveBufferReuse(t *testing.T) {
	const (
		agents   = 8
		shared   = 6
		steps    = 40
		interval = 10.0
	)
	var iv atomic.Int64
	eps := make([]CtrlEndpoint, agents)
	for i := range eps {
		a, err := NewAgent(AgentConfig{ID: i, Backend: &fakeBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = churnEndpoint{a, &iv}
	}
	batch := map[int]CtrlEndpoint{}
	for i := 0; i < shared; i++ {
		batch[i] = eps[i]
	}
	refs := make([]AgentRef, agents)
	batchURL := serveEndpoints(t, batch)
	for i := range refs {
		refs[i] = AgentRef{ID: i, URL: batchURL}
		if i >= shared {
			refs[i].URL = serveEndpoints(t, map[int]CtrlEndpoint{i: eps[i]})
		}
	}
	net, err := faults.NewNetInjector(faults.NetConfig{Seed: 21, DropReqP: 0.1, DropRespP: 0.1, DupP: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{
		Agents: refs, Strategy: StrategyUtility, FloorW: 10,
		LeaseIv: 2, IntervalS: interval, MissK: 2,
		RPCTimeout: 250 * time.Millisecond, Retries: 1,
		Seed: 5, Transport: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.client.backoffBase, coord.client.backoffMax = time.Millisecond, 2*time.Millisecond
	shard, err := NewShardCoordinator(coord, ShardConfig{Shard: 0, InitialBudgetW: 500})
	if err != nil {
		t.Fatal(err)
	}

	var prev *kept
	for s := 0; s < steps; s++ {
		ts := float64(s) * interval
		iv.Store(int64(s))
		if _, err := shard.ApplyBudget(ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: uint64(s + 1), Shard: 0, T: ts,
			CapW: 400 + float64(s%5)*40, Iv: uint64(s + 1), LeaseIv: 2, IvS: interval}); err != nil {
			t.Fatal(err)
		}
		// The reader walks interval s-1's leftovers for as long as
		// interval s runs.
		var reader sync.WaitGroup
		stop := make(chan struct{})
		if prev != nil {
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					prev.check(t, "during the next interval")
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		res, err := shard.Step(context.Background(), ts)
		close(stop)
		reader.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			prev.check(t, "after the next interval")
		}

		rep, err := shard.Report(ShardReportRequest{V: ProtocolV, Shard: 0})
		if err != nil {
			t.Fatal(err)
		}
		k := &kept{res: res, rollup: rep.Curve, events: coord.FaultEvents()}
		k.resCopy = res
		k.resCopy.Budgets = append([]float64(nil), res.Budgets...)
		k.resCopy.Granted = append([]bool(nil), res.Granted...)
		k.resCopy.Alive = append([]bool(nil), res.Alive...)
		for _, m := range coord.members {
			k.curves = append(k.curves, m.curve)
			k.curvesCopy = append(k.curvesCopy, append([]cluster.CapPoint(nil), m.curve...))
		}
		k.rollupCopy = append([]cluster.CapPoint(nil), rep.Curve...)
		k.eventsCopy = append([]faults.Event(nil), k.events...)
		prev = k
	}
	counts := net.Counts()
	if counts.ReqDrops == 0 || counts.RespDrops == 0 || counts.Duplicates == 0 {
		t.Fatalf("the injector dropped and duplicated nothing (%+v) — the run proved nothing", counts)
	}
	if st := coord.Stats(); st.BatchFrames == 0 || st.ScrapeFailures == 0 || st.Steps == 0 {
		t.Fatalf("the run exercised too little: %+v", st)
	}
}
