package faults

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrNetDrop marks an RPC the network injector swallowed: either the
// request never reached the server or the response never came back.
// The caller cannot tell which — exactly the ambiguity that makes
// at-most-once budget assignment unsafe and motivates the control
// plane's lease design.
var ErrNetDrop = fmt.Errorf("faults: injected network drop: %w", ErrTransient)

// NetConfig sets the injected network fault rates. The zero value
// injects nothing.
type NetConfig struct {
	// Seed drives the injector's random stream.
	Seed int64
	// DropReqP is the probability one request is lost before reaching
	// the server: the server never sees it, the caller gets a
	// transport error.
	DropReqP float64
	// DropRespP is the probability the response is lost after the
	// server processed the request — the nasty half of RPC ambiguity:
	// the effect landed, the caller sees a failure and will retry.
	DropRespP float64
	// DelayP is the probability one RPC is delayed by a uniform draw
	// in (0, DelayMax] before being forwarded.
	DelayP float64
	// DelayMax bounds injected delays (default 50ms). Delays larger
	// than the coordinator's per-RPC timeout surface as failures.
	DelayMax time.Duration
	// DupP is the probability one request is delivered twice — the
	// server processes it both times; the caller sees the second
	// response. Idempotent handlers (sequence-number dedup) must make
	// this harmless.
	DupP float64
	// MaxLogEvents bounds the injector's event log (0 means
	// DefaultMaxEvents).
	MaxLogEvents int
}

// Validate reports whether the configuration is usable.
func (c NetConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DropReqP", c.DropReqP},
		{"DropRespP", c.DropRespP},
		{"DelayP", c.DelayP},
		{"DupP", c.DupP},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s = %g outside [0, 1]", p.name, p.v)
		}
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("faults: DelayMax = %v is negative", c.DelayMax)
	}
	return nil
}

// Enabled reports whether any network fault can fire.
func (c NetConfig) Enabled() bool {
	return c.DropReqP > 0 || c.DropRespP > 0 || c.DelayP > 0 || c.DupP > 0
}

func (c NetConfig) delayMax() time.Duration {
	if c.DelayMax > 0 {
		return c.DelayMax
	}
	return 50 * time.Millisecond
}

// NetCounts tallies injected network faults.
type NetCounts struct {
	ReqDrops   int
	RespDrops  int
	Delays     int
	Duplicates int
	Blackholed int
}

// NetInjector wraps one control-plane frame exchange at a time (Do)
// and drops, delays, and duplicates it with configured probabilities,
// plus deterministic per-host blackholes for scripted outages (the
// lease-expiry parity harness downs one agent for an exact window
// instead of rolling dice).
//
// The random stream is seeded, but concurrent fan-out consumes it in
// scheduler order, so a faulty run is NOT bit-reproducible — soak tests
// assert invariants (the cap is never breached), not exact traces.
type NetInjector struct {
	cfg NetConfig
	log *Log

	mu     sync.Mutex
	rng    *rand.Rand
	down   map[string]bool
	counts NetCounts
}

// NewNetInjector builds an injector; the control plane's frame client
// calls its Do around every exchange.
func NewNetInjector(cfg NetConfig) (*NetInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NetInjector{
		cfg:  cfg,
		log:  NewLog(cfg.MaxLogEvents),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		down: make(map[string]bool),
	}, nil
}

// Log returns the injector's event log.
func (n *NetInjector) Log() *Log { return n.log }

// Counts returns the fault tally so far.
func (n *NetInjector) Counts() NetCounts {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.counts
}

// Heal disables every probabilistic fault from now on (deterministic
// blackholes persist until lifted with SetDown) — soak tests use it to
// verify the control plane converges once the network recovers.
func (n *NetInjector) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DropReqP, n.cfg.DropRespP, n.cfg.DelayP, n.cfg.DupP = 0, 0, 0, 0
}

// SetDown blackholes (or restores) every RPC to the given host:port.
// Unlike the probabilistic faults this is deterministic, so a test can
// down exactly one agent for exactly one outage window.
func (n *NetInjector) SetDown(hostport string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if down {
		n.down[hostport] = true
	} else {
		delete(n.down, hostport)
	}
}

// draw rolls the injector's dice for one RPC under the mutex.
func (n *NetInjector) draw(host string) (blackholed, dropReq, dropResp, dup bool, delay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down[host] {
		n.counts.Blackholed++
		return true, false, false, false, 0
	}
	if n.cfg.DropReqP > 0 && n.rng.Float64() < n.cfg.DropReqP {
		n.counts.ReqDrops++
		dropReq = true
	}
	if n.cfg.DropRespP > 0 && n.rng.Float64() < n.cfg.DropRespP {
		n.counts.RespDrops++
		dropResp = true
	}
	if n.cfg.DupP > 0 && n.rng.Float64() < n.cfg.DupP {
		n.counts.Duplicates++
		dup = true
	}
	if n.cfg.DelayP > 0 && n.rng.Float64() < n.cfg.DelayP {
		n.counts.Delays++
		delay = time.Duration(n.rng.Float64() * float64(n.cfg.delayMax()))
	}
	return
}

// Do applies the injected faults around one frame exchange with host.
// deliver performs the real exchange (request frame out, reply frame
// in) and may be called zero, one or two times; op names the frame for
// the event log.
func (n *NetInjector) Do(ctx context.Context, host, op string, deliver func() error) error {
	blackholed, dropReq, dropResp, dup, delay := n.draw(host)
	if blackholed {
		n.log.Append(Event{Kind: "net-blackhole", Target: host, Detail: op})
		return fmt.Errorf("%s %s: %w", op, host, ErrNetDrop)
	}
	if dropReq {
		n.log.Append(Event{Kind: "net-drop-request", Target: host, Detail: op})
		return fmt.Errorf("%s %s: %w", op, host, ErrNetDrop)
	}
	if delay > 0 {
		n.log.Append(Event{Kind: "net-delay", Target: host, Detail: fmt.Sprintf("%s +%v", op, delay)})
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	if dup {
		// The server processes the request both times; the caller only
		// ever sees the second delivery's reply.
		n.log.Append(Event{Kind: "net-duplicate", Target: host, Detail: op})
		_ = deliver()
	}
	if err := deliver(); err != nil {
		return err
	}
	if dropResp {
		n.log.Append(Event{Kind: "net-drop-response", Target: host, Detail: op})
		return fmt.Errorf("%s %s: response lost: %w", op, host, ErrNetDrop)
	}
	return nil
}
