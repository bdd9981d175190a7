package ctrlplane

import (
	"strconv"

	"powerstruggle/internal/telemetry"
)

// ctrlTel is the coordinator's pre-resolved instrument set: fleet-wide
// counterparts of the per-server control-loop metrics, plus fan-out
// spans on the coordinator trace track. A disabled hub resolves to nil
// instruments whose methods no-op, keeping the uninstrumented replay
// bit-identical.
type ctrlTel struct {
	enabled bool
	tracer  *telemetry.Tracer

	steps         *telemetry.Counter
	rpcs          *telemetry.CounterVec // kind ∈ {batch-report, batch-grant, shard-report, shard-budget}, outcome ∈ {ok, error}
	retries       *telemetry.Counter
	leaseExpiries *telemetry.Counter
	rejoins       *telemetry.Counter
	reapportions  *telemetry.Counter
	assignFails   *telemetry.Counter
	breakerTrips  *telemetry.Counter
	aliveAgents   *telemetry.Gauge
	fleetCapW     *telemetry.Gauge
	fleetGridW    *telemetry.Gauge
	fleetPerfN    *telemetry.Gauge
	agentBudgetW  *telemetry.GaugeVec
	agentSoC      *telemetry.GaugeVec
	rpcLatency    *telemetry.HistogramVec

	epochGauge    *telemetry.Gauge
	leaderGauge   *telemetry.Gauge
	failovers     *telemetry.Gauge
	registrations *telemetry.Counter

	// Protocol-clock instruments (docs/METRICS.md §Protocol clock).
	clockSkewIv  *telemetry.GaugeVec
	rehydrations *telemetry.Counter

	// Wire accounting. The transport label has one value, "binary"; it
	// stays because dashboards and psperf select on it.
	wireFrames *telemetry.CounterVec // dir ∈ {tx, rx}
	wireBytes  *telemetry.CounterVec // dir ∈ {tx, rx}; whole frames, header included
	connDials  *telemetry.CounterVec
	connReuses *telemetry.CounterVec
	batchedOps *telemetry.Counter

	// Shard-tier gauges (docs/METRICS.md §Hierarchy): set by the global
	// apportioner each interval.
	shardBudgetW   *telemetry.GaugeVec
	shardHeadroomW *telemetry.Gauge
	treeDepth      *telemetry.Gauge

	// Apportioning-DP work (docs/METRICS.md §Apportioning DP).
	dpLayers    *telemetry.Counter
	dpFallbacks *telemetry.Counter
}

func newCtrlTel(h *telemetry.Hub) *ctrlTel {
	reg := h.Registry()
	if reg == nil {
		return &ctrlTel{}
	}
	// Bounds in seconds: loopback RPCs land in the sub-millisecond
	// buckets, cross-rack ones in the milliseconds, retry storms above.
	bounds := []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}
	return &ctrlTel{
		enabled: true,
		tracer:  h.Tracer(),
		steps: reg.Counter("ps_ctrl_steps_total",
			"Control intervals the coordinator has driven."),
		rpcs: reg.CounterVec("ps_ctrl_rpcs_total",
			"Control-plane RPCs by kind and outcome.", "kind", "outcome"),
		retries: reg.Counter("ps_ctrl_rpc_retries_total",
			"RPC attempts beyond the first (jittered backoff)."),
		leaseExpiries: reg.Counter("ps_ctrl_lease_expiries_total",
			"Membership leases expired after consecutive missed scrapes."),
		rejoins: reg.Counter("ps_ctrl_rejoins_total",
			"Expired agents readmitted on a successful scrape."),
		reapportions: reg.Counter("ps_ctrl_reapportions_total",
			"Alive-set transitions that re-apportioned the cluster budget."),
		assignFails: reg.Counter("ps_ctrl_assign_failures_total",
			"Budget assignments that exhausted their retries."),
		breakerTrips: reg.Counter("ps_ctrl_breaker_trips_total",
			"Per-agent circuit breakers opened after consecutive failed scrapes."),
		aliveAgents: reg.Gauge("ps_ctrl_alive_agents",
			"Agents holding a live membership lease."),
		fleetCapW: reg.Gauge("ps_ctrl_fleet_cap_watts",
			"Cluster cap at the last control interval."),
		fleetGridW: reg.Gauge("ps_ctrl_fleet_grid_watts",
			"Summed scraped grid draw at the last control interval."),
		fleetPerfN: reg.Gauge("ps_ctrl_fleet_perf",
			"Summed scraped normalized performance at the last control interval."),
		agentBudgetW: reg.GaugeVec("ps_ctrl_agent_budget_watts",
			"Per-agent budget granted at the last control interval (0 while expired).", "agent"),
		agentSoC: reg.GaugeVec("ps_ctrl_agent_soc",
			"Per-agent battery state of charge at the last scrape.", "agent"),
		rpcLatency: reg.HistogramVec("ps_ctrl_rpc_seconds",
			"Wall-clock RPC latency by kind (successful attempts).", bounds, "kind"),
		epochGauge: reg.Gauge("ps_ctrl_epoch",
			"Leadership epoch this coordinator is operating under."),
		leaderGauge: reg.Gauge("ps_ctrl_leader",
			"1 while this coordinator leads the cluster, 0 while it observes."),
		failovers: reg.Gauge("ps_ctrl_failovers_total",
			"Leadership terms this coordinator took over from a lapsed or resigned predecessor."),
		registrations: reg.Counter("ps_ctrl_registrations_total",
			"Agent self-registrations admitted into the fleet."),
		clockSkewIv: reg.GaugeVec("ps_ctrl_clock_skew_intervals",
			"Per-member protocol-clock lag at the last scrape: coordinator interval counter minus the member's observed interval (the old fleet max is max() over the series; shard members are labeled shard-N).", "member"),
		rehydrations: reg.Counter("ps_ctrl_restart_rehydrations_total",
			"Interval-counter rehydrations from a majority of agent scrapes (one per coordinator (re)start)."),
		wireFrames: reg.CounterVec("ps_ctrl_wire_frames_total",
			"Wire messages by transport and direction.", "transport", "dir"),
		wireBytes: reg.CounterVec("ps_ctrl_wire_bytes_total",
			"Wire bytes by transport and direction.", "transport", "dir"),
		connDials: reg.CounterVec("ps_ctrl_conn_dials_total",
			"Control-plane connections dialed, by transport.", "transport"),
		connReuses: reg.CounterVec("ps_ctrl_conn_reuses_total",
			"Pooled binary connections reused instead of re-dialed.", "transport"),
		batchedOps: reg.Counter("ps_ctrl_batched_ops_total",
			"Per-agent scrapes and grants carried inside batch frames."),
		shardBudgetW: reg.GaugeVec("ps_ctrl_shard_budget_watts",
			"Per-shard budget granted by the global apportioner at the last interval.", "shard"),
		shardHeadroomW: reg.Gauge("ps_ctrl_shard_headroom_watts",
			"Unused headroom moved between shards at the last global interval."),
		treeDepth: reg.Gauge("ps_ctrl_tree_depth",
			"Depth of the coordination tree (1 flat, 2 sharded)."),
		dpLayers: reg.Counter("ps_ctrl_dp_layers_rebuilt_total",
			"Member layers the apportioning DP table rebuilt (Apportion and Rollup)."),
		dpFallbacks: reg.Counter("ps_ctrl_dp_cert_fallbacks_total",
			"Apportions whose volatility-ordered answer failed its certificate and were answered from the member-order table."),
	}
}

// quorumTel instruments one quorum-pool member: the proposer side's
// campaign outcomes and the local voter's ballot decisions. Same
// nil-safe pattern as ctrlTel — a disabled hub no-ops everything.
type quorumTel struct {
	enabled bool

	voters     *telemetry.Gauge
	lastAcks   *telemetry.Gauge
	commits    *telemetry.Counter
	losses     *telemetry.Counter
	votes      *telemetry.CounterVec // phase ∈ {prepare, accept}, outcome ∈ {granted, rejected}
	voterEpoch *telemetry.Gauge
}

func newQuorumTel(h *telemetry.Hub) *quorumTel {
	reg := h.Registry()
	if reg == nil {
		return &quorumTel{}
	}
	return &quorumTel{
		enabled: true,
		voters: reg.Gauge("ps_ctrl_quorum_voters",
			"Voter pool size this coordinator campaigns against."),
		lastAcks: reg.Gauge("ps_ctrl_quorum_last_acks",
			"Voter acks on the last commit attempt."),
		commits: reg.Counter("ps_ctrl_quorum_commits_total",
			"Campaigns committed on a majority of voters."),
		losses: reg.Counter("ps_ctrl_quorum_losses_total",
			"Campaigns abandoned without a majority (partition or voter loss)."),
		votes: reg.CounterVec("ps_ctrl_voter_votes_total",
			"Local voter's ballot decisions by phase and outcome.", "phase", "outcome"),
		voterEpoch: reg.Gauge("ps_ctrl_voter_epoch",
			"Epoch of the local voter's last accepted term."),
	}
}

// setVoters records the pool size.
func (t *quorumTel) setVoters(n int) {
	if !t.enabled {
		return
	}
	t.voters.Set(float64(n))
}

// noteCampaign records one campaign's ack count and outcome.
func (t *quorumTel) noteCampaign(acks int, committed bool) {
	if !t.enabled {
		return
	}
	t.lastAcks.Set(float64(acks))
	if committed {
		t.commits.Inc()
	} else {
		t.losses.Inc()
	}
}

// noteVote records one local voter decision.
func (t *quorumTel) noteVote(phase string, granted bool, epoch uint64) {
	if !t.enabled {
		return
	}
	outcome := "rejected"
	if granted {
		outcome = "granted"
	}
	t.votes.With(phase, outcome).Inc()
	t.voterEpoch.Set(float64(epoch))
}

// noteLeadership records the epoch and leader/observer role after a
// campaign.
func (t *ctrlTel) noteLeadership(epoch uint64, leading bool) {
	if !t.enabled {
		return
	}
	t.epochGauge.Set(float64(epoch))
	if leading {
		t.leaderGauge.Set(1)
	} else {
		t.leaderGauge.Set(0)
	}
}

// setFailovers mirrors the HA layer's failover count.
func (t *ctrlTel) setFailovers(n int) {
	if !t.enabled {
		return
	}
	t.failovers.Set(float64(n))
}

// memberTel is one member's own series of the per-member gauge
// families, resolved when the member is admitted: a label lookup is a
// formatted string and a locked map read, too much to pay per member per
// interval. All nil (no-ops) without a hub.
type memberTel struct {
	soc, skewIv, budgetW *telemetry.Gauge
}

// member resolves the gauges of the flat-tier member at fleet index i.
func (t *ctrlTel) member(i int) memberTel {
	label := strconv.Itoa(i)
	return memberTel{soc: t.agentSoC.With(label), skewIv: t.clockSkewIv.With(label), budgetW: t.agentBudgetW.With(label)}
}

// shard resolves the gauges of the global tier's shard at config index i.
func (t *ctrlTel) shard(i int) memberTel {
	label := strconv.Itoa(i)
	return memberTel{skewIv: t.clockSkewIv.With("shard-" + label), budgetW: t.shardBudgetW.With(label)}
}

// noteStep records one control interval's fleet state.
func (t *ctrlTel) noteStep(res StepResult, members []*member) {
	if !t.enabled {
		return
	}
	t.steps.Inc()
	t.fleetCapW.Set(res.CapW)
	t.fleetGridW.Set(res.FleetGridW)
	t.fleetPerfN.Set(res.FleetPerfN)
	alive := 0
	for i, b := range res.Budgets {
		members[i].tel.budgetW.Set(b)
		if res.Alive[i] {
			alive++
		}
	}
	t.aliveAgents.Set(float64(alive))
	t.tracer.Instant("ctrl-step", telemetry.CatCtrl, telemetry.TidCoord, res.T,
		telemetry.A("capW", res.CapW), telemetry.A("gridW", res.FleetGridW),
		telemetry.A("alive", alive))
}

// noteGlobalStep records one global interval's shard budgets, the
// headroom moved, and the tree depth.
func (t *ctrlTel) noteGlobalStep(res GlobalStepResult, shards []*globalShard) {
	if !t.enabled {
		return
	}
	t.steps.Inc()
	t.fleetCapW.Set(res.CapW)
	for i, b := range res.Budgets {
		shards[i].tel.budgetW.Set(b)
	}
	t.shardHeadroomW.Set(res.RebalancedW)
	t.treeDepth.Set(2)
	t.tracer.Instant("global-step", telemetry.CatCtrl, telemetry.TidCoord, res.T,
		telemetry.A("capW", res.CapW), telemetry.A("reservedW", res.ReservedW),
		telemetry.A("movedW", res.RebalancedW))
}

// noteDP records one apportioning-DP call's work: the layers it rebuilt
// and whether its certificate failed. Nil-safe: a coordinator assembled
// without New has no instrument set.
func (t *ctrlTel) noteDP(layers int, fellBack bool) {
	if t == nil || !t.enabled {
		return
	}
	t.dpLayers.Add(uint64(layers))
	if fellBack {
		t.dpFallbacks.Inc()
	}
}

// noteMembership mirrors a lease expiry or rejoin into the trace.
func (t *ctrlTel) noteMembership(tm float64, agent int, expired bool) {
	if !t.enabled {
		return
	}
	kind := "lease-expiry"
	if !expired {
		kind = "agent-rejoin"
	}
	t.tracer.Instant(kind, telemetry.CatCtrl, telemetry.TidCoord, tm,
		telemetry.A("agent", agent))
}
