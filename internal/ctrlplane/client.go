package ctrlplane

import (
	"context"
	"hash/fnv"
	"time"
)

// rpcClient is the coordinator's side of the wire. The actual encoding
// lives behind the Transport interface — JSON/HTTP or binary frames,
// chosen per endpoint URL scheme — while this layer owns everything
// transport-independent: per-attempt timeouts and bounded retries
// under jittered exponential backoff (the same hardening pattern
// internal/coordinator applies to knob writes, moved up to the
// network), plus RPC telemetry.
type rpcClient struct {
	dialer      *wireDialer
	timeout     time.Duration
	retries     int
	backoffBase time.Duration
	backoffMax  time.Duration
	seed        int64

	tel *ctrlTel
}

func newRPCClient(cfg Config, tel *ctrlTel) *rpcClient {
	return &rpcClient{
		dialer:      newWireDialer(cfg.Transport, tel),
		timeout:     cfg.rpcTimeout(),
		retries:     cfg.rpcRetries(),
		backoffBase: cfg.backoffBase(),
		backoffMax:  cfg.backoffMax(),
		seed:        cfg.Seed,
		tel:         tel,
	}
}

// close releases both transports' pooled connections.
func (c *rpcClient) close() { c.dialer.Close() }

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

// do runs one RPC attempt closure with the client's full retry budget.
// kind labels telemetry; key seeds the backoff jitter (callers pass
// jitterKey(kind, agent)).
func (c *rpcClient) do(ctx context.Context, kind string, key uint64, attempt func(ctx context.Context) error) error {
	return c.doN(ctx, kind, key, c.retries, attempt)
}

// doN is do with an explicit retry budget — 0 for the circuit
// breaker's half-open probe, where burning the whole budget against a
// likely-still-dead agent is exactly what the breaker exists to avoid.
// Each attempt runs under the per-RPC timeout.
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

// scrape fetches one agent's report, ticking its replay clock to t.
func (c *rpcClient) scrape(ctx context.Context, retries int, base string, server int, t float64) (Report, error) {
	tr := c.dialer.forURL(base)
	var rep Report
	err := c.doN(ctx, "report", jitterKey("report", server), retries, func(ctx context.Context) error {
		r, err := tr.Scrape(ctx, base, server, t, true)
		if err != nil {
			return err
		}
		rep = r
		return nil
	})
	return rep, err
}

// assign grants one agent a budget.
func (c *rpcClient) assign(ctx context.Context, retries int, base string, req AssignRequest) (AssignResponse, error) {
	tr := c.dialer.forURL(base)
	var resp AssignResponse
	err := c.doN(ctx, "assign", jitterKey("assign", req.Server), retries, func(ctx context.Context) error {
		r, err := tr.Assign(ctx, base, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// renew extends one agent's lease.
func (c *rpcClient) renew(ctx context.Context, base string, req LeaseRequest) (LeaseResponse, error) {
	tr := c.dialer.forURL(base)
	var resp LeaseResponse
	err := c.do(ctx, "lease", jitterKey("lease", req.Server), func(ctx context.Context) error {
		r, err := tr.Renew(ctx, base, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// scrapeBatch fetches a whole listener's worth of reports in one
// frame (binary endpoints only).
func (c *rpcClient) scrapeBatch(ctx context.Context, base string, req BatchScrapeRequest) (BatchScrapeResponse, error) {
	var resp BatchScrapeResponse
	key := jitterKey("batch-report", len(req.Servers))
	if len(req.Servers) > 0 {
		key = jitterKey("batch-report", req.Servers[0])
	}
	err := c.do(ctx, "batch-report", key, func(ctx context.Context) error {
		r, err := c.dialer.bin.ScrapeBatch(ctx, base, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// grantBatch fans one interval's grants to a whole listener in one
// frame (binary endpoints only). Retries are safe: renewals are
// idempotent and a re-delivered assign under the same (Epoch, Seq) is
// acknowledged with the in-force state.
func (c *rpcClient) grantBatch(ctx context.Context, base string, req BatchGrantRequest) (BatchGrantResponse, error) {
	var resp BatchGrantResponse
	key := jitterKey("batch-grant", len(req.Entries))
	if len(req.Entries) > 0 {
		key = jitterKey("batch-grant", req.Entries[0].Server)
	}
	err := c.do(ctx, "batch-grant", key, func(ctx context.Context) error {
		r, err := c.dialer.bin.GrantBatch(ctx, base, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// shardReport scrapes one shard coordinator's trunk summary (binary
// endpoints only — the trunk has no JSON fallback).
func (c *rpcClient) shardReport(ctx context.Context, retries int, base string, req ShardReportRequest) (ShardReport, error) {
	var rep ShardReport
	err := c.doN(ctx, "shard-report", jitterKey("shard-report", req.Shard), retries, func(ctx context.Context) error {
		r, err := c.dialer.bin.ShardScrape(ctx, base, req)
		if err != nil {
			return err
		}
		rep = r
		return nil
	})
	return rep, err
}

// shardBudget grants one shard its budget slice. Retries are safe: a
// re-delivered grant under the same (Epoch, Seq) is acknowledged with
// the in-force state, exactly like agent assigns.
func (c *rpcClient) shardBudget(ctx context.Context, retries int, base string, req ShardBudgetRequest) (ShardBudgetResponse, error) {
	var resp ShardBudgetResponse
	err := c.doN(ctx, "shard-budget", jitterKey("shard-budget", req.Shard), retries, func(ctx context.Context) error {
		r, err := c.dialer.bin.ShardBudget(ctx, base, req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}

// getJSON GETs a complete URL and decodes the response into out.
func (c *rpcClient) getJSON(ctx context.Context, kind string, key uint64, url string, out any) error {
	return c.do(ctx, kind, key, func(ctx context.Context) error {
		return c.dialer.json.get(ctx, url, out)
	})
}
