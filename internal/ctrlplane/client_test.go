package ctrlplane

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testClient(retries int) *rpcClient {
	return newRPCClient(Config{
		RPCTimeout:  time.Second,
		Retries:     retries,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}, newCtrlTel(nil))
}

// The client must absorb transient failures within its retry budget and
// surface the last error once the budget is exhausted.
func TestClientRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "not yet", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"v":3,"server":0,"epoch":1,"capW":50,"expiresIv":10,"fenced":false}`))
	}))
	defer srv.Close()

	var resp LeaseResponse
	if err := testClient(2).getJSON(context.Background(), "lease", jitterKey("lease", 0), srv.URL, &resp); err != nil {
		t.Fatalf("2 retries should absorb 2 failures: %v", err)
	}
	if resp.CapW != 50 {
		t.Fatalf("decoded %+v", resp)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d attempts, want 3", calls.Load())
	}

	calls.Store(-100) // next hundred attempts all fail
	err := testClient(1).getJSON(context.Background(), "lease", jitterKey("lease", 0), srv.URL, &resp)
	if err == nil || !strings.Contains(err.Error(), "not yet") {
		t.Fatalf("exhausted retries: %v", err)
	}
}

// Retry jitter is a pure function of (seed, key, attempt): the same
// seed reproduces the same backoff schedule across runs regardless of
// goroutine interleaving, different seeds decorrelate, and every value
// lands in the intended [d/2, d) window.
func TestJitterDeterministicAndBounded(t *testing.T) {
	mk := func(seed int64) *rpcClient {
		return newRPCClient(Config{
			BackoffBase: 10 * time.Millisecond,
			BackoffMax:  80 * time.Millisecond,
			Seed:        seed,
		}, newCtrlTel(nil))
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
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"v":3,"server":0,"soc":7}`))
	}))
	defer srv.Close()
	var rep Report
	if err := testClient(0).getJSON(context.Background(), "report", jitterKey("report", 0), srv.URL, &rep); err == nil {
		t.Fatal("soc=7 report accepted")
	}
}

// The handler must refuse misdirected and malformed control messages
// with 400s, and answer good ones on the wire paths.
func TestHandlerRouting(t *testing.T) {
	a, err := NewAgent(AgentConfig{ID: 3, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(a))
	defer srv.Close()

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(PathAssign, `{"v":3,"seq":1,"server":3,"t":0,"capW":40,"iv":1,"leaseIv":1,"ivS":5,"epoch":1}`); code != http.StatusOK {
		t.Fatalf("good assign: %d", code)
	}
	if got := a.CapW(); got != 40 {
		t.Fatalf("cap %g after assign", got)
	}
	if code := post(PathAssign, `{"v":3,"seq":2,"server":9,"t":0,"capW":40,"iv":1,"leaseIv":1,"ivS":5,"epoch":1}`); code != http.StatusBadRequest {
		t.Fatalf("misdirected assign: %d", code)
	}
	if code := post(PathAssign, `{"v":9,"seq":3,"server":3,"t":0,"capW":40,"iv":1,"leaseIv":1,"ivS":5,"epoch":1}`); code != http.StatusBadRequest {
		t.Fatalf("wrong protocol version: %d", code)
	}
	if code := post(PathAssign, `{"v":3,"seq":4,"server":3,"t":0,"capW":40,"iv":1,"leaseIv":1,"ivS":5}`); code != http.StatusBadRequest {
		t.Fatalf("epochless assign: %d", code)
	}
	if code := post(PathAssign, `garbage`); code != http.StatusBadRequest {
		t.Fatalf("garbage assign: %d", code)
	}
	if code := post(PathLease, `{"v":3,"server":3,"t":1,"iv":1,"leaseIv":1,"ivS":5,"epoch":1}`); code != http.StatusOK {
		t.Fatalf("good lease: %d", code)
	}

	// A scrape with a bad clock is refused; a good one ticks the agent.
	resp, err := http.Get(srv.URL + PathReport + "?t=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?t=: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + PathReport + "?t=100")
	if err != nil {
		t.Fatal(err)
	}
	body, err := readBody(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("good scrape: %d %v", resp.StatusCode, err)
	}
	rep, err := DecodeReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fenced {
		t.Fatal("lease granted at t=0 for 5s must have fenced by t=100")
	}
}
