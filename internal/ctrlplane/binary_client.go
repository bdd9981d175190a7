package ctrlplane

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerstruggle/internal/faults"
	"powerstruggle/internal/telemetry"
)

// maxIdleBinaryConns caps pooled conns per host. An interval's fan-out
// holds one conn per batch frame in flight to a listener: one for its
// group, more when the group is chunked at maxBatchEntries or half-open
// members probe alone, never more than MaxInFlight.
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

// bconn is one pooled framed conn, and the owner of the two buffers
// its frames move through: requests are encoded into out, replies read
// into in. Both outlive the exchange, so an interval's fan-out reuses
// last interval's buffers along with its conns.
type bconn struct {
	c       net.Conn
	br      *bufio.Reader
	in, out frameBuf
	reused  bool
}

// binaryTransport is the client side of the wire: length-prefixed
// frames over persistent TCP conns, pooled per host so an interval's
// fan-out reuses last interval's conns instead of re-dialing. Each
// send is a single protocol attempt — retries, backoff, circuit
// breaking and RPC telemetry live above it in rpcClient and the
// coordinator; a reused conn gets one transparent redial on transport
// failure, because a pooled conn may have died since its last use and
// that is indistinguishable from a dead peer without one fresh dial.
type binaryTransport struct {
	// Wire instruments, resolved once (nil, and no-ops, without a hub).
	txFrames, rxFrames, txBytes, rxBytes, connDials, connReuses *telemetry.Counter
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
	return &binaryTransport{
		txFrames: tel.wireFrames.With("binary", "tx"), rxFrames: tel.wireFrames.With("binary", "rx"),
		txBytes: tel.wireBytes.With("binary", "tx"), rxBytes: tel.wireBytes.With("binary", "rx"),
		connDials: tel.connDials.With("binary"), connReuses: tel.connReuses.With("binary"),
		inj: inj, idle: map[string][]*bconn{},
	}
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
		t.connReuses.Inc()
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
	t.connDials.Inc()
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

// exchange is one request frame out and its response frame back on bc:
// the request is encoded after its header in the conn's out buffer, the
// reply is read into its in buffer and decoded into *resp before either
// buffer can be reused. inSync reports that the stream is still at a
// frame boundary — true on success, on a remote FrameError and on a
// reply payload that fails to decode, all of which leave the conn fit to
// pool. Any transport-level failure closes the conn.
func exchange[Req validator, Resp any](ctx context.Context, t *binaryTransport, bc *bconn, req Req, resp *Resp) (inSync bool, err error) {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(binaryDefaultTimeout)
	}
	_ = bc.c.SetDeadline(deadline)
	frame, reqType := encode(appendFrameHeader(bc.out.b[:0]), &req)
	bc.out.b = finishFrame(frame, reqType)
	if _, err := bc.c.Write(frame); err != nil {
		bc.c.Close()
		return false, err
	}
	t.txFrames.Inc()
	t.txBytes.Add(uint64(len(frame)))
	ftype, payload, err := readFrame(bc.br, &bc.in.b)
	if err != nil {
		bc.c.Close()
		return false, err
	}
	// Counting the frames may drop a buffer for the collector; frame and
	// payload still reference theirs until this exchange returns.
	bc.out.handled(len(frame))
	bc.in.handled(len(payload))
	t.rxFrames.Inc()
	t.rxBytes.Add(uint64(frameHeaderLen + len(payload)))
	switch ftype {
	case reqType + 1: // a request's reply is the next frame type
		return true, decode(payload, resp)
	case FrameError:
		remote := new(frameRemoteError)
		if err := decode(payload, remote); err != nil {
			bc.c.Close()
			return false, err
		}
		return true, remote
	default:
		bc.c.Close()
		return false, fmt.Errorf("ctrlplane: frame type %#02x in reply, want %#02x", ftype, reqType+1)
	}
}

// deliver runs one exchange on a pooled (or fresh) conn and pools the
// conn again while its stream is in sync. A reused conn that fails at
// the transport level gets one transparent redial.
func deliver[Req validator, Resp any](ctx context.Context, t *binaryTransport, host string, req Req, resp *Resp) error {
	bc, err := t.checkout(ctx, host)
	if err != nil {
		return err
	}
	inSync, err := exchange(ctx, t, bc, req, resp)
	if !inSync && bc.reused && ctx.Err() == nil {
		fresh, derr := t.dial(ctx, host)
		if derr != nil {
			return err
		}
		bc = fresh
		inSync, err = exchange(ctx, t, bc, req, resp)
	}
	if inSync {
		t.put(host, bc)
	}
	return err
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

// rpc binds a request type and its reply type to the label telemetry,
// backoff jitter and the fault log know the exchange by. Both are
// messages of the wire's table (walk), which is where their frame types
// and field lists live.
type rpc[Req validator, Resp any] struct{ kind string }

var (
	rpcRegister    = rpc[RegisterRequest, RegisterResponse]{"register"}
	rpcVote        = rpc[VoteRequest, VoteResponse]{"vote"}
	rpcBatchScrape = rpc[BatchScrapeRequest, BatchScrapeResponse]{"batch-report"}
	rpcBatchGrant  = rpc[BatchGrantRequest, BatchGrantResponse]{"batch-grant"}
	rpcShardReport = rpc[ShardReportRequest, ShardReport]{"shard-report"}
	rpcShardBudget = rpc[ShardBudgetRequest, ShardBudgetResponse]{"shard-budget"}
)

// send is one attempt of one message: validate, then one exchange —
// encode, write, read, decode into *resp — under the fault injector, if
// any, which wraps the whole exchange: a duplicated delivery decodes
// twice into the same destination. On error *resp is unspecified.
func send[Req validator, Resp any](ctx context.Context, t *binaryTransport, base string, m rpc[Req, Resp], req Req, resp *Resp) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	host := binaryHost(base)
	if t.inj == nil {
		return deliver(ctx, t, host, req, resp)
	}
	return t.inj.Do(ctx, host, m.kind, func() error {
		return deliver(ctx, t, host, req, resp)
	})
}
