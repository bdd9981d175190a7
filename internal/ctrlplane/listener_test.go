package ctrlplane

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// dispatchOne answers one request frame as a conn's loop does, dispatching
// it into sc, the state one conn keeps across frames, and decodes the
// reply into resp.
func dispatchOne(tb testing.TB, srv *BinaryServer, sc *serverConn, req, resp any) {
	tb.Helper()
	payload, ftype := encode(sc.in.b[:0], req)
	sc.in.b = payload
	sc.out.b = srv.dispatch(sc, ftype, payload)
	rtype, p, _, err := DecodeFrame(sc.out.b)
	if err != nil {
		tb.Fatal(err)
	}
	if rtype == FrameError {
		var e frameRemoteError
		_ = decode(p, &e)
		tb.Fatalf("listener answered FrameError: %s", e.msg)
	}
	if err := decode(p, resp); err != nil {
		tb.Fatal(err)
	}
}

// TestListenerResolvesChangedBatch holds the listener's per-conn
// endpoint cache to Endpoints when a batch's id list changes on one
// conn: permuted, grown by an id no agent behind the listener has (that
// slot alone answers an error), shrunk, and back to the original list.
// Scrape and grant frames alternate throughout, so each kind reads
// slots the other resolved. Every slot must reach the agent it names.
func TestListenerResolvesChangedBatch(t *testing.T) {
	const foreign = 7
	agents := make([]*Agent, 4)
	eps := make(map[int]CtrlEndpoint, len(agents))
	for i := range agents {
		a, err := NewAgent(AgentConfig{ID: i, Backend: &fakeBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		agents[i], eps[i] = a, a
	}
	srv := &BinaryServer{cfg: BinaryServerConfig{Endpoints: eps}}
	var sc serverConn
	var seq uint64
	slotErr := func(what string, j, id int, msg string) {
		t.Helper()
		if id == foreign {
			if !strings.Contains(msg, fmt.Sprintf("no agent %d", foreign)) {
				t.Fatalf("%s slot %d (agent %d): error %q, want no agent", what, j, id, msg)
			}
		} else if msg != "" {
			t.Fatalf("%s slot %d (agent %d): %s", what, j, id, msg)
		}
	}
	scrape := func(ids []int) {
		t.Helper()
		var resp BatchScrapeResponse
		dispatchOne(t, srv, &sc, &BatchScrapeRequest{V: ProtocolV, T: float64(seq), HasT: true, Servers: ids}, &resp)
		if len(resp.Results) != len(ids) {
			t.Fatalf("scrape of %v: %d slots", ids, len(resp.Results))
		}
		for j, id := range ids {
			r := &resp.Results[j]
			if r.Server != id {
				t.Fatalf("scrape of %v: slot %d answers agent %d", ids, j, r.Server)
			}
			if slotErr("scrape", j, id, r.Err); id == foreign {
				continue
			}
			if r.Report.Server != id || r.Report.CapW != agents[id].CapW() {
				t.Fatalf("scrape of %v: slot %d reports agent %d at %g W, agent %d enforces %g W",
					ids, j, r.Report.Server, r.Report.CapW, id, agents[id].CapW())
			}
		}
	}
	grant := func(ids []int) {
		t.Helper()
		seq++
		req := &BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: seq, T: float64(seq), Iv: seq, LeaseIv: 2, IvS: 1}
		for _, id := range ids {
			req.Entries = append(req.Entries, GrantEntry{Server: id, CapW: 20 + float64(id) + float64(seq)})
		}
		var resp BatchGrantResponse
		dispatchOne(t, srv, &sc, req, &resp)
		if len(resp.Results) != len(ids) {
			t.Fatalf("grant of %v: %d slots", ids, len(resp.Results))
		}
		for j, e := range req.Entries {
			r := &resp.Results[j]
			if r.Server != e.Server {
				t.Fatalf("grant of %v: slot %d answers agent %d", ids, j, r.Server)
			}
			if slotErr("grant", j, e.Server, r.Err); e.Server == foreign {
				continue
			}
			if got := agents[e.Server].CapW(); !r.Resp.Applied || r.Resp.Server != e.Server || r.Resp.CapW != e.CapW || got != e.CapW {
				t.Fatalf("grant of %v: slot %d acknowledged %+v; agent %d enforces %g W, granted %g W", ids, j, r.Resp, e.Server, got, e.CapW)
			}
		}
	}
	for k, ids := range [][]int{
		{0, 1, 2, 3},
		{2, 0, 3, 1},          // permuted
		{0, foreign, 1, 2, 3}, // an id not behind this listener
		{0, 1, 2, 3},          // back to the original
		{3},                   // shrunk
		{0, 1, 2, 3},
		{0, 1, 2, 3}, // repeated: every slot from the cache
	} {
		if k%2 == 0 {
			scrape(ids)
			grant(ids)
		} else {
			grant(ids)
			scrape(ids)
		}
	}
}

// TestScrapeIsOneSnapshot races grants against scrapes on one agent
// (run it under -race). Each scrape's clock is ten lease lengths past the
// last, so its tick lapses whatever grant landed before it: a report
// must be the state that tick left — fenced at the fence cap, with the
// (Epoch, Seq) of the last grant applied — never a grant that landed
// between the tick and the report.
func TestScrapeIsOneSnapshot(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	var seq atomic.Uint64
	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				s := seq.Add(1)
				if _, err := a.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: s, Server: 0, CapW: 30 + float64(s%50),
					Iv: s, LeaseIv: 1, IvS: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var lastSeq uint64
	for i := 1; i <= 2000 && !t.Failed(); i++ {
		rep, err := a.Scrape(10*float64(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Fenced || rep.CapW != 0 {
			t.Fatalf("scrape %d: fenced=%v at %g W, want the fence cap its own tick enforced", i, rep.Fenced, rep.CapW)
		}
		if rep.Seq < lastSeq || (rep.Seq > 0) != (rep.Epoch == 1) {
			t.Fatalf("scrape %d: epoch %d seq %d after seq %d", i, rep.Epoch, rep.Seq, lastSeq)
		}
		lastSeq = rep.Seq
	}
	done.Store(true)
	wg.Wait()
}

// BenchmarkListenerBatch is the listener's own cost outside psperf and
// without TCP: one 1 000-slot batch frame decoded, dispatched to warm
// agents through the conn's endpoint cache, and answered into the conn's
// reply buffer, in ns per slot. scrape is a steady scrape (every curve
// held by the scraper); grant alternates re-assigns and coalesced
// renewals, as flat-1k's moving cap does.
func BenchmarkListenerBatch(b *testing.B) {
	const n = 1000
	eps := make(map[int]CtrlEndpoint, n)
	ids := make([]int, n)
	for i := range ids {
		a, err := NewAgent(AgentConfig{ID: i, Backend: newDemandBackend(50), Version: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		eps[i], ids[i] = a, i
	}
	srv := &BinaryServer{cfg: BinaryServerConfig{Endpoints: eps}}
	var sc serverConn
	// Odd seqs renew the cap the even seq before them assigned.
	grantReq := &BatchGrantRequest{V: ProtocolV, Epoch: 1, LeaseIv: 2, IvS: 1, Entries: make([]GrantEntry, n)}
	setGrant := func(s uint64) {
		grantReq.Seq, grantReq.Iv, grantReq.T = s, s, float64(s)
		for i := range grantReq.Entries {
			grantReq.Entries[i] = GrantEntry{Server: i, CapW: 50 + float64(s/2%3), Renew: s%2 == 1}
		}
	}
	seq := uint64(1)
	setGrant(seq)
	dispatchOne(b, srv, &sc, grantReq, new(BatchGrantResponse))
	scrapeReq := &BatchScrapeRequest{V: ProtocolV, T: float64(seq), HasT: true, Servers: ids}
	var scrapeResp BatchScrapeResponse
	dispatchOne(b, srv, &sc, scrapeReq, &scrapeResp)
	scrapeReq.Held = make([]uint64, n)
	for j := range scrapeResp.Results {
		scrapeReq.Held[j] = scrapeResp.Results[j].Report.CurveVer
	}
	scrapePayload, _ := encode(nil, scrapeReq)

	perSlot := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/slot")
	}
	b.Run("scrape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.out.b = srv.dispatch(&sc, FrameBatchScrapeReq, scrapePayload)
		}
		perSlot(b)
	})
	b.Run("grant", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			seq++
			setGrant(seq)
			payload, _ := encode(sc.in.b[:0], grantReq)
			sc.in.b = payload
			b.StartTimer()
			sc.out.b = srv.dispatch(&sc, FrameBatchGrantReq, payload)
		}
		perSlot(b)
	})
}
