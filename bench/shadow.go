package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"powerstruggle/internal/allocator"
	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/coordinator"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	wl "powerstruggle/internal/workload"
)

// Shadow calls replay inputs the run captured through one layer's
// public function, outside any interval, so a layer's own cost can be
// read without instrumenting the product.

// shadowBudget bounds each shadow measurement's wall time.
const shadowBudget = 120 * time.Millisecond

// timeOp returns the median time of one fn call in nanoseconds. Calls
// are timed in batches so the clock reads do not drown a sub-microsecond
// operation; batches repeat until the budget is spent (at least five).
func timeOp(batch int, budget time.Duration, fn func()) float64 {
	fn() // untimed first call: lazy set-up, cold caches
	var perOp []float64
	deadline := time.Now().Add(budget)
	for len(perOp) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn()
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(perOp)
}

func shadow(name string, w workload, pl plan, vals map[string]float64) error {
	budget := shadowBudget
	if pl.Smoke {
		budget /= 10
	}
	switch w := w.(type) {
	case *churnWorkload:
		return shadowChurn(w, budget, vals)
	case *flatWorkload:
		shadowCodec(budget, vals)
		if w.learners != nil {
			return shadowLearn(pl.Seed, budget, vals)
		}
		return nil
	case *treeWorkload:
		shadowCodec(budget, vals)
		return shadowTree(w, budget, vals)
	}
	return fmt.Errorf("no shadow calls for %s", name)
}

// shadowChurn times the single-server layers on the applications the
// run admitted: the two most recently running form the live mix.
func shadowChurn(w *churnWorkload, budget time.Duration, vals map[string]float64) error {
	hw := w.hw
	names := make([]string, 0, len(w.admitted))
	for n := range w.admitted {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) < 2 {
		return fmt.Errorf("server-churn admitted %d distinct applications; the shadow mix needs two", len(names))
	}
	mix := []*wl.Profile{w.admitted[names[0]], w.admitted[names[len(names)-1]]}

	// simhw: one 10 ms step with two running slots.
	srv, err := simhw.NewServer(hw)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		id, err := srv.Claim(hw.CoresPerSocket)
		if err != nil {
			return err
		}
		if err := srv.SetKnobs(id, 1.8, hw.CoresPerSocket, 8); err != nil {
			return err
		}
		if err := srv.SetRunning(id, true); err != nil {
			return err
		}
	}
	vals["simhw.step_ns"] = timeOp(1000, budget, func() { srv.Step(0.01) })
	vals["simhw.steps_per_interval"] = 1 / 0.01

	// workload: the 432-setting Pareto construction, per admitted app.
	next := 0
	vals["workload.optimal_curve_us"] = timeOp(1, budget, func() {
		wl.OptimalCurve(hw, w.admitted[names[next%len(names)]])
		next++
	}) / 1e3
	curves := []*wl.Curve{wl.OptimalCurve(hw, mix[0]), wl.OptimalCurve(hw, mix[1])}

	// allocator: the two-application budget DP at the 80 W cap's
	// dynamic budget.
	dynW := 80 - hw.PIdleWatts - hw.PCmWatts
	var aerr error
	vals["allocator.apportion_us"] = timeOp(10, budget, func() {
		if _, err := allocator.Apportion(curves, dynW, 0); err != nil {
			aerr = err
		}
	}) / 1e3
	if aerr != nil {
		return aerr
	}

	// coordinator: the ESD duty-cycle schedule for the mix at 80 W.
	dev, err := esd.NewDevice(esd.LeadAcid(300e3), 0.6)
	if err != nil {
		return err
	}
	ccfg := coordinator.Config{HW: hw, CapW: 80}
	var serr error
	vals["coordinator.esd_schedule_us"] = timeOp(10, budget, func() {
		if _, err := coordinator.ESD(ccfg, curves, dev); err != nil {
			serr = err
		}
	}) / 1e3
	if serr != nil {
		return serr
	}

	// policy: one whole planning pass (curves + DP + coordination).
	pctx := policy.Context{HW: hw, CapW: 80, Profiles: mix, Library: w.lib, Device: dev}
	var dec policy.Decision
	var perr error
	vals["policy.plan_us"] = timeOp(1, budget, func() {
		if dec, perr = policy.Plan(policy.AppResESDAware, pctx); perr != nil {
			return
		}
	}) / 1e3
	if perr != nil {
		return perr
	}

	// coordinator: one executor step of that plan on a fresh server.
	ex, err := coordinator.NewExecutor(ccfg, dev)
	if err != nil {
		return err
	}
	for _, p := range mix {
		inst, err := wl.NewInstance(p, 0)
		if err != nil {
			return err
		}
		if _, err := ex.AddApp(p, inst); err != nil {
			return err
		}
	}
	if err := ex.SetSchedule(dec.Schedule); err != nil {
		return err
	}
	var xerr error
	vals["coordinator.exec_step_us"] = timeOp(100, budget, func() {
		if _, err := ex.Step(0.01); err != nil {
			xerr = err
		}
	}) / 1e3
	return xerr
}

// shadowCodec times one frame encode plus decode of a 64 KiB payload.
func shadowCodec(budget time.Duration, vals map[string]float64) {
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	vals["ctrlplane.frame_codec_ns_per_kb"] = timeOp(10, budget, func() {
		frame := ctrlplane.EncodeFrame(ctrlplane.FrameBatchScrapeResp, payload)
		if _, _, _, err := ctrlplane.DecodeFrame(frame); err != nil {
			panic(err) // a frame we just encoded cannot fail to decode
		}
	}) / 64
}

// shadowLearn times the online estimator on a fully observed 41-cell
// grid: one Observe, and one Curve rebuild after that dirtying sample.
func shadowLearn(seed int64, budget time.Duration, vals map[string]float64) error {
	est, err := cf.NewOnlineEstimator(cf.OnlineConfig{FloorW: curveFloorW, NameplateW: curveNamepW, Seed: seed})
	if err != nil {
		return err
	}
	b := &curveBackend{tau: 40}
	grid := est.Grid()
	for _, c := range grid {
		est.Observe(c, b.perfAt(c))
	}
	k := 0
	vals["cf.observe_ns"] = timeOp(100, budget, func() {
		est.Observe(grid[k%len(grid)], b.perfAt(grid[k%len(grid)])*(1+1e-3*float64(k%7)))
		k++
	})
	vals["cf.curve_us"] = timeOp(1, budget, func() {
		est.Observe(grid[k%len(grid)], b.perfAt(grid[k%len(grid)])*(1+1e-3*float64(k%7)))
		k++
		est.Curve()
	}) / 1e3
	return nil
}

// shadowTree times the cluster functions the tree runs above the flat
// protocol: the per-node member-curve rollup, and the global's shard DP
// and headroom rebalance over those rollups.
func shadowTree(w *treeWorkload, budget time.Duration, vals map[string]float64) error {
	var shardCurves []cluster.ShardCurve
	var usedW, demandW []float64
	for s, sh := range w.shards {
		curves := make([][]cluster.CapPoint, len(sh.slice.agents))
		var used float64
		for j, a := range sh.slice.agents {
			rep, err := a.Report()
			if err != nil {
				return err
			}
			curves[j] = rep.UtilityCurve
			used += rep.GridW
		}
		if s == 0 {
			vals["cluster.rollup_us"] = timeOp(1, budget, func() {
				cluster.DownsampleCurve(cluster.RollupCurves(demandFloorW, curves), 256)
			}) / 1e3
		}
		roll := cluster.DownsampleCurve(cluster.RollupCurves(demandFloorW, curves), 256)
		shardCurves = append(shardCurves, cluster.ShardCurve{FloorW: demandFloorW * float64(len(curves)), Points: roll})
		usedW = append(usedW, used)
		demandW = append(demandW, used*1.02)
	}
	var budgets []float64
	vals["cluster.apportion_shards_us"] = timeOp(1, budget, func() {
		budgets, _ = cluster.ApportionShards(w.capW*0.98, shardCurves, 0)
	}) / 1e3
	vals["cluster.rebalance_us"] = timeOp(100, budget, func() {
		cluster.RebalanceHeadroom(budgets, usedW, demandW, 0.05)
	}) / 1e3
	return nil
}
