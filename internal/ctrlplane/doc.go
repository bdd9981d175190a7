// Package ctrlplane promotes the Section IV-D cluster layer from an
// in-process simulation to a distributed system: a coordinator manages
// a fleet of per-server agents over binary frames on pooled TCP conns,
// fanning out power-budget assignments, scraping telemetry, and
// re-apportioning the cluster cap when servers drop out — with
// internal/cluster kept as its bit-exact oracle.
//
// # Protocol
//
// Three request frames per agent (docs/WIRE.md is the wire reference,
// docs/CONTROL_PLANE.md the failure matrix); agents sharing a listener
// take them a whole fleet to a batch frame:
//
//   - assign — grant a power budget. The grant doubles as a lease: it
//     authorizes the agent to draw up to CapW until the lease lapses,
//     after which the agent fences itself to its fail-safe cap.
//     Requests carry a monotonic sequence number, so duplicated or
//     reordered RPCs cannot resurrect a stale budget.
//   - report — scrape power draw, battery state of charge, and the
//     agent's cap-utility curve. The coordinator uses the scrape as its
//     liveness heartbeat and feeds the curves into the
//     cluster.ApportionCurves DP (the paper's R1 one level up the power
//     hierarchy).
//   - lease — renew the draw lease without changing the budget; the
//     coordinator sends this instead of a full assignment when an
//     agent's budget is unchanged.
//
// # Safety argument
//
// The coordinator never relies on an unacknowledged assignment: an
// agent either acked this interval's grant (and draws at most its new
// share) or missed it (and fences itself to the fail-safe cap once the
// lease lapses). With a lease no longer than the control interval, the
// summed fleet draw cannot exceed the cluster cap even when RPCs are
// dropped, delayed, or duplicated — the invariant TestCtrlPlaneSoak
// holds under injected network faults. Longer leases trade that hard
// guarantee for fewer fences, bounding any breach by the lease length.
//
// A server that stays unreachable for MissK consecutive intervals loses
// its membership lease; the coordinator re-apportions the surviving
// fleet's budget exactly as internal/cluster/dropout.go does in
// process, and a recovered agent rejoins on its first successful
// scrape.
package ctrlplane
