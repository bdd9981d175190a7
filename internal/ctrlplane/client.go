package ctrlplane

import (
	"context"
	"hash/fnv"
	"time"
)

// rpcClient is the coordinator's side of the wire. Frames and pooled
// conns live in binaryTransport; this layer owns per-attempt timeouts
// and bounded retries under jittered exponential backoff (the same
// hardening pattern internal/coordinator applies to knob writes, moved
// up to the network), plus RPC telemetry.
type rpcClient struct {
	bin         *binaryTransport
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	seed        int64

	tel *ctrlTel
}

func newRPCClient(cfg Config, tel *ctrlTel) *rpcClient {
	return &rpcClient{
		bin:         newBinaryTransport(tel, cfg.Transport),
		timeout:     cfg.rpcTimeout(),
		retries:     cfg.rpcRetries(),
		backoffBase: cfg.backoffBase(),
		backoffMax:  cfg.backoffMax(),
		seed:        cfg.Seed,
		tel:         tel,
	}
}

// close releases the pooled connections.
func (c *rpcClient) close() { c.bin.Close() }

// jitterKey folds an RPC kind and agent id into the backoff hash key,
// so two RPC kinds to the same agent do not retry in lockstep.
func jitterKey(kind string, agent int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(kind))
	return h.Sum64() ^ uint64(agent)*0x9e3779b97f4a7c15
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitteredBackoff returns the sleep before retry attempt (1-based):
// base·2^(attempt-1) capped at max, then jittered to [d/2, d) so a
// fleet of failing RPCs does not retry in lockstep. The jitter is a
// pure function of (seed, key, attempt) — no shared random stream —
// so concurrent fan-out cannot consume draws in scheduler order and a
// seeded HA soak retries with the same backoff schedule every run.
func (c *rpcClient) jitteredBackoff(key uint64, attempt int) time.Duration {
	d := c.backoffBase << (attempt - 1)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	h := splitmix64(uint64(c.seed) ^ splitmix64(key^uint64(attempt)))
	f := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * f)
}

// doN runs one RPC attempt closure under a retry budget — the client's
// own, or 0 for the circuit breaker's half-open probe, where burning
// the whole budget against a likely-still-dead agent is exactly what
// the breaker exists to avoid. kind labels telemetry; key seeds the
// backoff jitter. Each attempt runs under the per-RPC timeout.
func (c *rpcClient) doN(ctx context.Context, kind string, key uint64, retries int, attempt func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		// A canceled interval must not start new RPCs: shutdown
		// promptness is bounded by one attempt, not the retry budget.
		return err
	}
	var lastErr error
	for i := 0; i <= retries; i++ {
		if i > 0 {
			c.tel.retries.Inc()
			select {
			case <-time.After(c.jitteredBackoff(key, i)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		start := time.Now()
		attemptCtx, cancel := context.WithTimeout(ctx, c.timeout)
		err := attempt(attemptCtx)
		cancel()
		if err == nil {
			c.tel.rpcs.With(kind, "ok").Inc()
			if c.tel.enabled {
				c.tel.rpcLatency.With(kind).Observe(time.Since(start).Seconds())
			}
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	c.tel.rpcs.With(kind, "error").Inc()
	return lastErr
}

// call runs one message with a retry budget, decoding the reply into
// *resp (unspecified on error): the binding's kind labels telemetry and,
// with id (the agent, shard, or a batch's first member), seeds the
// backoff jitter. Retrying grants is safe — renewals are idempotent and
// a re-delivered assign or shard budget under the same (Epoch, Seq) is
// acknowledged with the in-force state.
func call[Req validator, Resp any](ctx context.Context, c *rpcClient, m rpc[Req, Resp], retries, id int, base string, req Req, resp *Resp) error {
	return c.doN(ctx, m.kind, jitterKey(m.kind, id), retries, func(ctx context.Context) error {
		return send(ctx, c.bin, base, m, req, resp)
	})
}
