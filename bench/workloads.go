package main

// specs lists the four workloads in the order they are run and
// reported. nominal is the fixed interval count behind -intervals -1
// (about 30 s on the 2-core reference box); window is the prefix of
// measured intervals the deterministic metrics and digests cover,
// sized so that a run_seconds run on that box covers it about twice
// over.
var specs = []spec{
	{
		name:    "server-churn",
		why:     "one mediated server under job churn and cap steps: simhw/workload/allocator/policy/coordinator/accountant/esd do all the work, ctrlplane/cluster none",
		nominal: 30000, window: 5000, setups: 9,
		build: buildChurn,
	},
	{
		name:    "flat-1k",
		why:     "1000 agents, one listener, equal split, cap moving every 2nd interval: wire, codec, batching, fan-out and member apply dominate; the DP does nothing",
		nominal: 12000, window: 1500, setups: 9, wire: true,
		build: buildFlat1k,
	},
	{
		name:    "flat-learn-128",
		why:     "128 agents, utility DP over 41-point curves, 8 online learners dirtying curves every interval: cluster.Apportioner and cf dominate, the wire is under 5 %",
		nominal: 1200, window: 150, setups: 3, wire: true,
		build: buildFlatLearn,
	},
	{
		name:    "tree-1k-8",
		why:     "8 shards x 125 agents, HA shard pairs, one global: 24 thin listeners, trunk frames, 16 small DPs and a rollup; where the two-tier tax lives",
		nominal: 600, window: 120, setups: 5, wire: true,
		build: buildTree,
	},
}
