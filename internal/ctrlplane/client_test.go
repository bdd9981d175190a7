package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/faults"
)

func testClient(retries int) *rpcClient {
	c := newRPCClient(Config{RPCTimeout: time.Second, Retries: retries}, newCtrlTel(nil))
	c.backoffBase, c.backoffMax = time.Millisecond, 4*time.Millisecond
	return c
}

// scriptedEndpoint is a CtrlEndpoint whose answers a test scripts; nil
// hooks refuse the call.
type scriptedEndpoint struct {
	assign func(AssignRequest) (AssignResponse, error)
	renew  func(LeaseRequest) (LeaseResponse, error)
	scrape func(t float64, hasT bool) (Report, error)
}

func (e scriptedEndpoint) Assign(req AssignRequest) (AssignResponse, error) {
	if e.assign == nil {
		return AssignResponse{}, errors.New("assign not scripted")
	}
	return e.assign(req)
}

func (e scriptedEndpoint) Renew(req LeaseRequest) (LeaseResponse, error) {
	if e.renew == nil {
		return LeaseResponse{}, errors.New("renew not scripted")
	}
	return e.renew(req)
}

func (e scriptedEndpoint) Scrape(t float64, hasT bool) (Report, error) {
	if e.scrape == nil {
		return Report{}, errors.New("scrape not scripted")
	}
	return e.scrape(t, hasT)
}

// serveEndpoints hosts eps behind one loopback listener for the test's
// lifetime and returns its tcp:// URL.
func serveEndpoints(t *testing.T, eps map[int]CtrlEndpoint) string {
	t.Helper()
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: eps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv.URL()
}

// The client must absorb transient failures within its retry budget and
// surface the last error once the budget is exhausted. A failed agent
// is a batch reply's slot, not a failed frame, so the frame that fails
// here is a shard budget, whose handler's error is the whole reply.
func TestClientRetries(t *testing.T) {
	var calls atomic.Int64
	srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{
		ShardBudget: func(req ShardBudgetRequest) (ShardBudgetResponse, error) {
			if calls.Add(1) <= 2 {
				return ShardBudgetResponse{}, errors.New("not yet")
			}
			return ShardBudgetResponse{V: ProtocolV, Epoch: 1, Seq: 1, Applied: true, CapW: 50, Iv: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := srv.URL()
	req := ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: 1, CapW: 50, Iv: 1, LeaseIv: 1, IvS: 5}

	c := testClient(2)
	defer c.close()
	var resp ShardBudgetResponse
	err = call(context.Background(), c, rpcShardBudget, c.retries, 0, url, req, &resp)
	if err != nil {
		t.Fatalf("2 retries should absorb 2 failures: %v", err)
	}
	if resp.CapW != 50 {
		t.Fatalf("decoded %+v", resp)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 3", calls.Load())
	}

	calls.Store(-100) // next hundred attempts all fail
	c1 := testClient(1)
	defer c1.close()
	err = call(context.Background(), c1, rpcShardBudget, c1.retries, 0, url, req, &resp)
	if err == nil || !strings.Contains(err.Error(), "not yet") {
		t.Fatalf("exhausted retries: %v", err)
	}
	if got := calls.Load(); got != -98 {
		t.Fatalf("%d attempts under a 1-retry budget, want 2", got+100)
	}
}

// Retry jitter is a pure function of (seed, key, attempt): the same
// seed reproduces the same backoff schedule across runs regardless of
// goroutine interleaving, different seeds decorrelate, and every value
// lands in the intended [d/2, d) window.
func TestJitterDeterministicAndBounded(t *testing.T) {
	mk := func(seed int64) *rpcClient {
		c := newRPCClient(Config{Seed: seed}, newCtrlTel(nil))
		c.backoffMax = 80 * time.Millisecond
		return c
	}
	a, b, c := mk(42), mk(42), mk(43)
	varies := false
	for agent := 0; agent < 8; agent++ {
		for attempt := 1; attempt <= 6; attempt++ {
			key := jitterKey("assign", agent)
			d1, d2, d3 := a.jitteredBackoff(key, attempt), b.jitteredBackoff(key, attempt), c.jitteredBackoff(key, attempt)
			if d1 != d2 {
				t.Fatalf("same seed diverged: %v vs %v (agent %d attempt %d)", d1, d2, agent, attempt)
			}
			if d1 != d3 {
				varies = true
			}
			cap := a.backoffBase << (attempt - 1)
			if cap > a.backoffMax || cap <= 0 {
				cap = a.backoffMax
			}
			if d1 < cap/2 || d1 >= cap {
				t.Fatalf("jitter %v outside [%v, %v)", d1, cap/2, cap)
			}
		}
	}
	if !varies {
		t.Fatal("seeds 42 and 43 produced identical schedules everywhere")
	}
	if jitterKey("assign", 3) == jitterKey("lease", 3) {
		t.Fatal("rpc kinds share a jitter key")
	}
}

// The jitter path must be race-free under concurrent fan-out: before
// this, a shared rand.Rand consumed draws in scheduler order, which
// both raced and broke determinism. Run with -race to enforce.
func TestJitterConcurrentFanout(t *testing.T) {
	c := testClient(0)
	done := make(chan struct{})
	for g := 0; g < 16; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 1; i <= 200; i++ {
				_ = c.jitteredBackoff(jitterKey("assign", g), i%4+1)
			}
		}(g)
	}
	for g := 0; g < 16; g++ {
		<-done
	}
}

// Scrape responses are validated at the client: an invalid report is an
// RPC failure, not bad data handed to the apportioning DP.
func TestClientRejectsInvalidReport(t *testing.T) {
	url := serveEndpoints(t, map[int]CtrlEndpoint{0: scriptedEndpoint{
		scrape: func(float64, bool) (Report, error) { return Report{V: ProtocolV, SoC: 7}, nil },
	}})
	c := testClient(0)
	defer c.close()
	err := call(context.Background(), c, rpcBatchScrape, 0, 0, url, BatchScrapeRequest{V: ProtocolV, Servers: []int{0}}, new(BatchScrapeResponse))
	if err == nil || !strings.Contains(err.Error(), "soc") {
		t.Fatalf("soc=7 report accepted (err %v)", err)
	}
}

// dialRaw opens a bare conn to a listener for sendRaw.
func dialRaw(t *testing.T, url string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", binaryHost(url))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sendRaw writes one hand-built payload as a frame on c and reads the
// reply frame, decoding its payload into resp (nil discards it) unless it
// is an error frame. It skips the client-side Validate, so the listener's
// own decoder is what refuses a bad message — and a refusal that cost the
// conn fails the next sendRaw on it.
func sendRaw(c net.Conn, reqType byte, payload []byte, resp any) error {
	if _, err := c.Write(EncodeFrame(reqType, payload)); err != nil {
		return err
	}
	var buf []byte
	ftype, reply, err := readFrame(c, &buf)
	if err != nil {
		return err
	}
	if ftype == FrameError {
		remote := new(frameRemoteError)
		if err := decode(reply, remote); err != nil {
			return err
		}
		return remote
	}
	if ftype != reqType+1 {
		return fmt.Errorf("frame type %#02x in reply to %#02x", ftype, reqType)
	}
	if resp != nil {
		return decode(reply, resp)
	}
	return nil
}

// The listener must refuse malformed control messages with error frames
// that keep the conn, answer a misdirected batch entry with an error slot
// beside its well-directed neighbours, and answer good ones.
func TestHandlerRouting(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 3, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	url := serveEndpoints(t, map[int]CtrlEndpoint{3: a})
	bin := newBinaryTransport(nil, nil)
	defer bin.Close()
	ctx := context.Background()
	raw := dialRaw(t, url)
	rawGrant := func(payload []byte, resp *BatchGrantResponse) error {
		return sendRaw(raw, FrameBatchGrantReq, payload, resp)
	}
	refused := func(what string, err error) {
		t.Helper()
		var remote *frameRemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("%s: got %v, want an error frame", what, err)
		}
	}
	good := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 1, IvS: 5,
		Entries: []GrantEntry{{Server: 9, CapW: 30}, {Server: 3, CapW: 40}}}
	var resp BatchGrantResponse
	if err := rawGrant(wireBytes(&good), &resp); err != nil {
		t.Fatalf("good grant: %v", err)
	}
	if len(resp.Results) != 2 || !strings.Contains(resp.Results[0].Err, "no agent 9") ||
		resp.Results[1].Err != "" || !resp.Results[1].Resp.Applied {
		t.Fatalf("grant to agents 9 and 3 answered %+v", resp.Results)
	}
	if got := a.CapW(); got != 40 {
		t.Fatalf("cap %g after grant", got)
	}
	for what, mut := range map[string]func(*BatchGrantRequest){
		"epochless grant":  func(r *BatchGrantRequest) { r.Epoch = 0 },
		"leaseless grant":  func(r *BatchGrantRequest) { r.LeaseIv = 0 },
		"negative server":  func(r *BatchGrantRequest) { r.Entries = []GrantEntry{{Server: -3, CapW: 50}} },
		"entryless grant":  func(r *BatchGrantRequest) { r.Entries = nil },
		"NaN-capped grant": func(r *BatchGrantRequest) { r.Entries = []GrantEntry{{Server: 3, CapW: math.NaN()}} },
	} {
		refused(what, rawGrant(wireBytes(with(&good, func(r *BatchGrantRequest) { r.Seq = 2; mut(r) })), nil))
	}
	refused("garbage grant", rawGrant([]byte("garbage"), nil))
	if got := a.CapW(); got != 40 {
		t.Fatalf("cap %g after refused grants, want 40", got)
	}
	// A scrape with a bad clock is refused too — on the conn every refusal
	// above was answered on: the listener keeps a conn it answered with an
	// error frame.
	refused("negative scrape clock", sendRaw(raw, FrameBatchScrapeReq,
		wireBytes(&BatchScrapeRequest{V: ProtocolV, T: -1, HasT: true, Servers: []int{3}}), nil))

	// So does the client: an error frame — a vote to a listener that hosts
	// no voter — and two good exchanges cost one dial.
	refused("vote to an agent listener", send(ctx, bin, url, rpcVote, VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 1}, new(VoteResponse)))
	renew := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 2, T: 1, Iv: 1, LeaseIv: 1, IvS: 5,
		Entries: []GrantEntry{{Server: 3, CapW: 40, Renew: true}}}
	if err := send(ctx, bin, url, rpcBatchGrant, renew, &resp); err != nil || !resp.Results[0].Renewed {
		t.Fatalf("good renewal: %+v, %v", resp.Results, err)
	}
	var rep BatchScrapeResponse
	if err := send(ctx, bin, url, rpcBatchScrape, BatchScrapeRequest{V: ProtocolV, T: 100, HasT: true, Servers: []int{3}}, &rep); err != nil {
		t.Fatalf("good scrape: %v", err)
	}
	if d := bin.dials.Load(); d != 1 {
		t.Fatalf("%d dials; error frames must not cost the conn", d)
	}
	if !rep.Results[0].Report.Fenced {
		t.Fatal("lease granted at t=0 for 5s must have fenced by t=100")
	}
}

// wantDropped fails t unless the listener closes c, unanswered, within
// five seconds of what was just written to it.
func wantDropped(t *testing.T, c net.Conn, what string) {
	t.Helper()
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("%s: the listener answered or held the conn (read %d bytes, err %v); want it dropped", what, n, err)
	}
}

// TestRetiredFrameTypesRefused: a v4 listener speaks no frame v4
// retired and no v3 frame at all. Each is refused at the header — by
// DecodeFrame, and by a listener that drops the conn unanswered — while
// the batch frames that replaced them are answered on that same conn
// until then.
func TestRetiredFrameTypesRefused(t *testing.T) {
	retired := []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x0b, 0x0c}
	for _, ftype := range retired {
		if _, _, _, err := DecodeFrame(EncodeFrame(ftype, nil)); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Errorf("retired frame %#02x: DecodeFrame says %v", ftype, err)
		}
	}
	msgs := canonicalMessages()
	for ftype, payload := range msgs {
		if _, _, _, err := DecodeFrame(mutate(EncodeFrame(ftype, payload), 2, 3)); err == nil || !strings.Contains(err.Error(), "protocol v3") {
			t.Errorf("v3 frame %#02x: DecodeFrame says %v", ftype, err)
		}
	}

	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	url := serveEndpoints(t, map[int]CtrlEndpoint{0: a})
	grant := BatchGrantRequest{V: ProtocolV, Epoch: 1, Iv: 1, LeaseIv: 1, IvS: 5, Entries: []GrantEntry{{CapW: 40}}}
	var frames [][]byte
	for _, ftype := range retired {
		frames = append(frames, EncodeFrame(ftype, nil))
	}
	// A v3 peer's scrape and grant: well-formed but for the version byte.
	frames = append(frames, mutate(EncodeFrame(FrameBatchScrapeReq, msgs[FrameBatchScrapeReq]), 2, 3),
		mutate(EncodeFrame(FrameBatchGrantReq, wireBytes(with(&grant, func(r *BatchGrantRequest) { r.Seq = 99 }))), 2, 3))
	for i, frame := range frames {
		raw := dialRaw(t, url)
		grant.Seq = uint64(i + 1)
		var scraped BatchScrapeResponse
		var granted BatchGrantResponse
		if err := sendRaw(raw, FrameBatchScrapeReq, wireBytes(&BatchScrapeRequest{V: ProtocolV, Servers: []int{0}}), &scraped); err != nil || scraped.Results[0].Err != "" {
			t.Fatalf("scrape before frame %x: %+v, %v", frame[:4], scraped.Results, err)
		}
		if err := sendRaw(raw, FrameBatchGrantReq, wireBytes(&grant), &granted); err != nil || !granted.Results[0].Resp.Applied {
			t.Fatalf("grant before frame %x: %+v, %v", frame[:4], granted.Results, err)
		}
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
		wantDropped(t, raw, fmt.Sprintf("frame %x", frame[:4]))
	}
	if got := a.Status().Assigns; got != len(frames) {
		t.Errorf("agent applied %d grants, want the %d sent as v4 batch frames", got, len(frames))
	}
}

// The fault injector sits at the frame seam: a dropped request never
// reaches the agent, a dropped response lands its effect and still
// errors, a duplicate is applied once and answered by its replay, and a
// blackholed host is never dialed.
func TestInjectorWrapsFrameExchange(t *testing.T) {
	ctx := context.Background()
	grant := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 1, IvS: 5, Entries: []GrantEntry{{CapW: 40}}}
	run := func(cfg faults.NetConfig, down bool) (*Agent, *binaryTransport, AssignResponse, error) {
		t.Helper()
		a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
		if err != nil {
			t.Fatal(err)
		}
		url := serveEndpoints(t, map[int]CtrlEndpoint{0: a})
		inj, err := faults.NewNetInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inj.SetDown(binaryHost(url), down)
		bin := newBinaryTransport(nil, inj)
		t.Cleanup(bin.Close)
		var resp BatchGrantResponse
		err = send(ctx, bin, url, rpcBatchGrant, grant, &resp)
		if err != nil {
			return a, bin, AssignResponse{}, err
		}
		return a, bin, resp.Results[0].Resp, nil
	}

	a, _, _, err := run(faults.NetConfig{DropReqP: 1}, false)
	if !errors.Is(err, faults.ErrNetDrop) || a.Status().Assigns != 0 {
		t.Fatalf("dropped request: err %v, agent applied %d assigns", err, a.Status().Assigns)
	}
	a, _, _, err = run(faults.NetConfig{DropRespP: 1}, false)
	if !errors.Is(err, faults.ErrNetDrop) || a.Status().Assigns != 1 || a.CapW() != 40 {
		t.Fatalf("dropped response: err %v, agent applied %d assigns (cap %g W)", err, a.Status().Assigns, a.CapW())
	}
	a, _, resp, err := run(faults.NetConfig{DupP: 1}, false)
	if err != nil || a.Status().Assigns != 1 || a.Status().StaleDrops != 1 || resp.Applied || resp.CapW != 40 {
		t.Fatalf("duplicate: err %v, %d assigns, %d stale drops, second reply %+v", err, a.Status().Assigns, a.Status().StaleDrops, resp)
	}
	a, bin, _, err := run(faults.NetConfig{}, true)
	if !errors.Is(err, faults.ErrNetDrop) || a.Status().Assigns != 0 || bin.dials.Load() != 0 {
		t.Fatalf("blackhole: err %v, %d assigns, %d dials", err, a.Status().Assigns, bin.dials.Load())
	}
}

// A conn's frame buffers are reused frame after frame, which must not
// turn one near-limit frame into memory pinned for the conn's idle
// lifetime: a pooled conn that carried one 900 KiB scrape reply and then
// small ones gives the big buffer back, while a conn that keeps
// alternating a large reply with a small one — every interval's scrape
// and grant — keeps its buffer instead of regrowing it each time.
func TestConnBufferBound(t *testing.T) {
	big := make([]cluster.CapPoint, 900<<10/24)
	for i := range big {
		big[i] = cluster.CapPoint{CapW: float64(i), Perf: 1, GridW: 1}
	}
	var curve atomic.Pointer[[]cluster.CapPoint]
	curve.Store(&big)
	url := serveEndpoints(t, map[int]CtrlEndpoint{0: scriptedEndpoint{
		scrape: func(float64, bool) (Report, error) {
			c := *curve.Load()
			return Report{V: ProtocolV, SoC: 0.5, UtilityCurve: c, CurveVer: curveVersion(c)}, nil
		},
	}})
	bin := newBinaryTransport(nil, nil)
	defer bin.Close()
	scrape := func() {
		t.Helper()
		var resp BatchScrapeResponse
		if err := send(context.Background(), bin, url, rpcBatchScrape, BatchScrapeRequest{V: ProtocolV, Servers: []int{0}}, &resp); err != nil || resp.Results[0].Err != "" {
			t.Fatalf("scrape: %+v, %v", resp.Results, err)
		}
	}
	pooled := func() *bconn {
		t.Helper()
		bin.mu.Lock()
		defer bin.mu.Unlock()
		if idle := bin.idle[binaryHost(url)]; len(idle) == 1 {
			return idle[0]
		}
		t.Fatal("want exactly one pooled conn")
		return nil
	}
	scrape()
	if got := cap(pooled().in.b); got < 900<<10 {
		t.Fatalf("after a 900 KiB reply the conn's read buffer holds %d bytes", got)
	}
	curve.Store(new([]cluster.CapPoint))
	for i := 0; i < 2*frameBufWindow; i++ {
		scrape()
	}
	if got := cap(pooled().in.b); got > 4*minFrameBuf {
		t.Errorf("%d small frames later the conn still pins a %d-byte read buffer", 2*frameBufWindow, got)
	}
	if d := bin.dials.Load(); d != 1 {
		t.Errorf("%d dials: the buffer must go, not the conn", d)
	}

	// The interval's own rhythm: a reply eight times the next one.
	f := frameBuf{b: make([]byte, 80<<10)}
	for i := 0; i < 4*frameBufWindow; i++ {
		f.handled(80 << 10)
		f.handled(10 << 10)
	}
	if cap(f.b) != 80<<10 {
		t.Errorf("alternating 80 KiB and 10 KiB frames dropped the buffer (cap %d)", cap(f.b))
	}
}
