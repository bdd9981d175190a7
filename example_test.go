package powerstruggle_test

import (
	"fmt"

	"powerstruggle"
)

// Example reproduces the paper's headline scenario: a memory-bound and a
// compute-bound application (Table II's mix-1) sharing a 100 W server —
// about 10% below what the pair draws uncapped — under each of the four
// battery-less policies. Treating power as a shared resource
// (App+Res-Aware) recovers throughput the utility-blind baseline leaves
// on the table, and no policy draws above the cap.
func Example() {
	srv, err := powerstruggle.NewServer(powerstruggle.Defaults())
	if err != nil {
		panic(err)
	}
	if err := srv.SetCap(100); err != nil {
		panic(err)
	}
	for _, app := range []string{"STREAM", "kmeans"} {
		if err := srv.Admit(app); err != nil {
			panic(err)
		}
	}
	var base float64
	for _, p := range []powerstruggle.Policy{
		powerstruggle.UtilUnaware, powerstruggle.ServerResAware,
		powerstruggle.AppAware, powerstruggle.AppResAware,
	} {
		res, err := srv.Run(p, 30)
		if err != nil {
			panic(err)
		}
		if base == 0 {
			base = res.TotalPerf
		}
		fmt.Printf("%-16v mode=%s split=%.1f/%.1f W %+.1f%% violations=%d\n", p, res.Mode,
			res.AppBudgetW[0], res.AppBudgetW[1], (res.TotalPerf/base-1)*100, res.CapViolations)
	}
	// Output:
	// Util-Unaware     mode=space split=15.0/15.0 W +0.0% violations=0
	// Server+Res-Aware mode=space split=15.0/15.0 W -5.5% violations=0
	// App-Aware        mode=space split=15.5/14.5 W +1.0% violations=0
	// App+Res-Aware    mode=space split=11.5/18.5 W +10.7% violations=0
}

// ExampleServer_AdmitCritical shows the latency-critical extension: an
// SLO floor reserves watts for the critical application (ferret) before
// the best-effort job (BFS) gets any. Raising the floor buys the critical
// application guaranteed watts; the batch job absorbs the squeeze.
func ExampleServer_AdmitCritical() {
	for _, floor := range []float64{0, 0.80, 0.90} {
		cfg := powerstruggle.Defaults()
		cfg.BatteryJ = 0
		srv, err := powerstruggle.NewServer(cfg)
		if err != nil {
			panic(err)
		}
		if err := srv.SetCap(95); err != nil {
			panic(err)
		}
		if err := srv.AdmitCritical("ferret", 1, floor); err != nil {
			panic(err)
		}
		if err := srv.Admit("BFS"); err != nil {
			panic(err)
		}
		res, err := srv.Run(powerstruggle.AppResAware, 20)
		if err != nil {
			panic(err)
		}
		fmt.Printf("floor %.2f: ferret %.2f (%.1f W) BFS %.2f (%.1f W) violations=%d\n", floor,
			res.AppPerf[0], res.AppBudgetW[0], res.AppPerf[1], res.AppBudgetW[1], res.CapViolations)
	}
	// Output:
	// floor 0.00: ferret 0.68 (12.5 W) BFS 0.84 (12.5 W) violations=0
	// floor 0.80: ferret 0.81 (15.5 W) BFS 0.64 (9.5 W) violations=0
	// floor 0.90: ferret 0.92 (18.5 W) BFS 0.47 (6.5 W) violations=0
}

// Example_batteryBoost shows the stringent-cap regime (R3/R4): at 80 W,
// X264 + SSSP (mix-14) cannot both run at full speed. Coordinating the
// lead-acid battery in space and time — charging while the sockets
// deep-sleep, discharging while both run, amortizing P_cm — lifts
// throughput well past the RAPL baseline while the grid stays at the cap.
func Example_batteryBoost() {
	run := func(p powerstruggle.Policy, batteryJ float64) *powerstruggle.Result {
		cfg := powerstruggle.Defaults()
		cfg.BatteryJ = batteryJ
		srv, err := powerstruggle.NewServer(cfg)
		if err != nil {
			panic(err)
		}
		if err := srv.SetCap(80); err != nil {
			panic(err)
		}
		for _, app := range []string{"X264", "SSSP"} {
			if err := srv.Admit(app); err != nil {
				panic(err)
			}
		}
		res, err := srv.Run(p, 60)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-17v mode=%-5s violations=%d\n", p, res.Mode, res.CapViolations)
		return res
	}
	baseline := run(powerstruggle.UtilUnaware, 0)
	run(powerstruggle.AppResAware, 0)
	battery := run(powerstruggle.AppResESDAware, 300e3)
	fmt.Printf("battery boost over the RAPL baseline: %.2fx\n", battery.TotalPerf/baseline.TotalPerf)
	// Output:
	// Util-Unaware      mode=space violations=0
	// App+Res-Aware     mode=space violations=0
	// App+Res+ESD-Aware mode=esd   violations=0
	// battery boost over the RAPL baseline: 1.64x
}

// ExampleServer_Plan inspects a schedule without executing it.
func ExampleServer_Plan() {
	srv, err := powerstruggle.NewServer(powerstruggle.Defaults())
	if err != nil {
		panic(err)
	}
	if err := srv.SetCap(80); err != nil {
		panic(err)
	}
	for _, app := range []string{"X264", "SSSP"} {
		if err := srv.Admit(app); err != nil {
			panic(err)
		}
	}
	sched, err := srv.Plan(powerstruggle.AppResESDAware)
	if err != nil {
		panic(err)
	}
	fmt.Printf("coordination=%s segments=%d\n", sched.Mode, len(sched.Segments))
	// Output: coordination=esd segments=2
}
