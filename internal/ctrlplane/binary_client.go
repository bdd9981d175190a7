package ctrlplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerstruggle/internal/faults"
)

// maxIdleBinaryConns caps pooled conns per host. Unary fan-out to one
// shared listener holds at most MaxInFlight conns at once; batch
// fan-out needs one or two.
const maxIdleBinaryConns = 16

const (
	binaryDialTimeout    = 5 * time.Second
	binaryDefaultTimeout = 30 * time.Second
)

// frameRemoteError is a server-side failure relayed in a FrameError
// frame. The conn that carried it is still in protocol sync, so it
// goes back to the pool and the error is not worth a redial.
type frameRemoteError struct{ msg string }

func (e *frameRemoteError) Error() string { return "ctrlplane: remote: " + e.msg }

// bconn is one pooled framed conn.
type bconn struct {
	c      net.Conn
	br     *bufio.Reader
	reused bool
}

// binaryTransport is the client side of the wire: length-prefixed
// frames over persistent TCP conns, pooled per host so an interval's
// fan-out reuses last interval's conns instead of re-dialing. Each
// roundTrip is a single protocol attempt — retries, backoff, circuit
// breaking and RPC telemetry live above it in rpcClient and the
// coordinator; a reused conn gets one transparent redial on transport
// failure, because a pooled conn may have died since its last use and
// that is indistinguishable from a dead peer without one fresh dial.
type binaryTransport struct {
	tel *ctrlTel
	// inj, when non-nil, wraps every exchange in injected network
	// faults (the chaos suites' drop/delay/duplicate/blackhole shim).
	inj    *faults.NetInjector
	dials  atomic.Uint64
	reuses atomic.Uint64

	mu     sync.Mutex
	idle   map[string][]*bconn
	closed bool
}

// newBinaryTransport builds a frame client. tel and inj may be nil.
func newBinaryTransport(tel *ctrlTel, inj *faults.NetInjector) *binaryTransport {
	if tel == nil {
		tel = &ctrlTel{}
	}
	return &binaryTransport{tel: tel, inj: inj, idle: map[string][]*bconn{}}
}

// binaryHost strips the tcp:// scheme and any path suffix off a base URL.
func binaryHost(base string) string {
	h := strings.TrimPrefix(base, "tcp://")
	if i := strings.IndexByte(h, '/'); i >= 0 {
		h = h[:i]
	}
	return h
}

func (t *binaryTransport) checkout(ctx context.Context, host string) (*bconn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("ctrlplane: binary transport closed")
	}
	if list := t.idle[host]; len(list) > 0 {
		bc := list[len(list)-1]
		list[len(list)-1] = nil
		t.idle[host] = list[:len(list)-1]
		t.mu.Unlock()
		bc.reused = true
		t.reuses.Add(1)
		t.tel.connReuses.With("binary").Inc()
		return bc, nil
	}
	t.mu.Unlock()
	return t.dial(ctx, host)
}

func (t *binaryTransport) dial(ctx context.Context, host string) (*bconn, error) {
	d := net.Dialer{Timeout: binaryDialTimeout}
	c, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	t.dials.Add(1)
	t.tel.connDials.With("binary").Inc()
	return &bconn{c: c, br: bufio.NewReader(c)}, nil
}

func (t *binaryTransport) put(host string, bc *bconn) {
	t.mu.Lock()
	if !t.closed && len(t.idle[host]) < maxIdleBinaryConns {
		t.idle[host] = append(t.idle[host], bc)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	bc.c.Close()
}

// exchange writes one request frame and reads its response frame. Any
// transport-level failure closes the conn (the stream can no longer be
// trusted to be at a frame boundary).
func (t *binaryTransport) exchange(ctx context.Context, bc *bconn, frame []byte, respType byte) ([]byte, error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(binaryDefaultTimeout)
	}
	_ = bc.c.SetDeadline(deadline)
	if _, err := bc.c.Write(frame); err != nil {
		bc.c.Close()
		return nil, err
	}
	t.tel.wireFrames.With("binary", "tx").Inc()
	t.tel.wireBytes.With("binary", "tx").Add(uint64(len(frame)))
	ftype, payload, err := readFrame(bc.br)
	if err != nil {
		bc.c.Close()
		return nil, err
	}
	t.tel.wireFrames.With("binary", "rx").Inc()
	t.tel.wireBytes.With("binary", "rx").Add(uint64(frameHeaderLen + len(payload)))
	switch ftype {
	case respType:
		return payload, nil
	case FrameError:
		msg, derr := decodeErrPayload(payload)
		if derr != nil {
			bc.c.Close()
			return nil, derr
		}
		return nil, &frameRemoteError{msg: msg}
	default:
		bc.c.Close()
		return nil, fmt.Errorf("ctrlplane: frame type %#02x in reply, want %#02x", ftype, respType)
	}
}

// roundTrip runs one request/response exchange against base under the
// fault injector, if any; op names the message in the injector's log.
func (t *binaryTransport) roundTrip(ctx context.Context, base, op string, reqType byte, payload []byte, respType byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	host := binaryHost(base)
	frame := EncodeFrame(reqType, payload)
	if t.inj == nil {
		return t.deliver(ctx, host, frame, respType)
	}
	var resp []byte
	err := t.inj.Do(ctx, host, op, func() (err error) {
		resp, err = t.deliver(ctx, host, frame, respType)
		return err
	})
	return resp, err
}

// deliver sends one frame and reads its reply, pooling the conn on
// success (and on remote errors, which leave the stream in sync).
func (t *binaryTransport) deliver(ctx context.Context, host string, frame []byte, respType byte) ([]byte, error) {
	bc, err := t.checkout(ctx, host)
	if err != nil {
		return nil, err
	}
	resp, err := t.exchange(ctx, bc, frame, respType)
	var remote *frameRemoteError
	if err == nil {
		t.put(host, bc)
		return resp, nil
	}
	if errors.As(err, &remote) {
		t.put(host, bc)
		return nil, err
	}
	if bc.reused && ctx.Err() == nil {
		bc2, derr := t.dial(ctx, host)
		if derr != nil {
			return nil, err
		}
		resp, err = t.exchange(ctx, bc2, frame, respType)
		if err == nil {
			t.put(host, bc2)
			return resp, nil
		}
		if errors.As(err, &remote) {
			t.put(host, bc2)
			return nil, err
		}
	}
	return nil, err
}

// closeIdle drops every pooled conn (chaos drills bounce the pool).
func (t *binaryTransport) closeIdle() {
	t.mu.Lock()
	idle := t.idle
	t.idle = map[string][]*bconn{}
	t.mu.Unlock()
	for _, list := range idle {
		for _, bc := range list {
			bc.c.Close()
		}
	}
}

func (t *binaryTransport) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.closeIdle()
}

// validator is what every request message implements: the invariants
// its decoder enforces, checked before the frame is built.
type validator interface{ Validate() error }

// rpc binds one message kind to the wire: the label telemetry, backoff
// jitter and the fault log know it by, its request and reply frame
// types, and the payload codecs.
type rpc[Req validator, Resp any] struct {
	kind              string
	reqType, respType byte
	enc               func([]byte, Req) []byte
	dec               func([]byte) (Resp, error)
}

var (
	rpcScrape      = rpc[scrapeRequest, Report]{"report", FrameScrapeReq, FrameReportResp, appendScrapeReq, decodeReportPayload}
	rpcAssign      = rpc[AssignRequest, AssignResponse]{"assign", FrameAssignReq, FrameAssignResp, appendAssignReq, decodeAssignRespPayload}
	rpcLease       = rpc[LeaseRequest, LeaseResponse]{"lease", FrameLeaseReq, FrameLeaseResp, appendLeaseReq, decodeLeaseRespPayload}
	rpcRegister    = rpc[RegisterRequest, RegisterResponse]{"register", FrameRegisterReq, FrameRegisterResp, appendRegisterReq, decodeRegisterRespPayload}
	rpcVote        = rpc[VoteRequest, VoteResponse]{"vote", FrameVoteReq, FrameVoteResp, appendVoteReq, decodeVoteRespPayload}
	rpcBatchScrape = rpc[BatchScrapeRequest, BatchScrapeResponse]{"batch-report", FrameBatchScrapeReq, FrameBatchScrapeResp, appendBatchScrapeReq, decodeBatchScrapeRespPayload}
	rpcBatchGrant  = rpc[BatchGrantRequest, BatchGrantResponse]{"batch-grant", FrameBatchGrantReq, FrameBatchGrantResp, appendBatchGrantReq, decodeBatchGrantRespPayload}
	rpcShardReport = rpc[ShardReportRequest, ShardReport]{"shard-report", FrameShardReportReq, FrameShardReportResp, appendShardReportReq, decodeShardReportPayload}
	rpcShardBudget = rpc[ShardBudgetRequest, ShardBudgetResponse]{"shard-budget", FrameShardBudgetReq, FrameShardBudgetResp, appendShardBudgetReq, decodeShardBudgetRespPayload}
)

// send is one attempt of one message: validate, encode, one frame
// round trip, decode.
func send[Req validator, Resp any](ctx context.Context, t *binaryTransport, base string, m rpc[Req, Resp], req Req) (Resp, error) {
	var zero Resp
	if err := req.Validate(); err != nil {
		return zero, err
	}
	p, err := t.roundTrip(ctx, base, m.kind, m.reqType, m.enc(nil, req), m.respType)
	if err != nil {
		return zero, err
	}
	return m.dec(p)
}

// Client is a bare frame client for agent endpoints: one attempt per
// call over pooled conns, with none of the coordinator's retries,
// breakers or telemetry — what drills and ad-hoc tooling hold to send a
// hand-built grant, renewal or scrape.
type Client struct{ bin *binaryTransport }

// NewClient builds a client; Close releases its pooled conns.
func NewClient() *Client { return &Client{bin: newBinaryTransport(nil, nil)} }

func (c *Client) Close() { c.bin.Close() }

// Assign, Renew and Scrape send one frame to the listener at base (a
// tcp:// URL) and return the agent's reply or its error frame.
func (c *Client) Assign(ctx context.Context, base string, req AssignRequest) (AssignResponse, error) {
	return send(ctx, c.bin, base, rpcAssign, req)
}

func (c *Client) Renew(ctx context.Context, base string, req LeaseRequest) (LeaseResponse, error) {
	return send(ctx, c.bin, base, rpcLease, req)
}

func (c *Client) Scrape(ctx context.Context, base string, server int, t float64, hasT bool) (Report, error) {
	return send(ctx, c.bin, base, rpcScrape, scrapeRequest{server, t, hasT})
}
