package ctrlplane

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
	"powerstruggle/internal/telemetry"
)

// learnedCurve builds a test cap-utility curve on the [45, 95] W grid.
func learnedCurve(scale float64) []cluster.CapPoint {
	grid := cf.CapGrid(45, 95, 10)
	rates := make([]float64, len(grid))
	for j, c := range grid {
		rates[j] = scale * (1 - math.Exp(-c/60))
	}
	return cf.CurveFromRates(grid, rates)
}

// TestLearnedCurveConfidenceFloor pins the effective-curve rule: a
// pre-characterized curve (no meta) and a converged learner enter the
// utility DP; a learner below the confidence floor takes the curveless
// even-share fallback, and the curved members split the remainder
// exactly as the full DP says. The decision repeats bit-identically —
// and with zero DP recompute — when nothing changed.
func TestLearnedCurveConfidenceFloor(t *testing.T) {
	c := &Coordinator{cfg: Config{Strategy: StrategyUtility, FloorW: 45}}
	c.members = []*member{
		{curve: learnedCurve(100)},                             // pre-characterized: trusted
		{curve: learnedCurve(80), curveConf: 1, curveCells: 6}, // converged learner: trusted
		{curve: learnedCurve(60), curveConf: 0.5, curveCells: 3} /* below DefaultCurveConfFloor */}
	alive := []bool{true, true, true}
	budgets := make([]float64, 3)
	const capW = 500.0
	if err := c.apportion(capW, alive, budgets); err != nil {
		t.Fatal(err)
	}
	per := capW / 3
	if budgets[2] != per {
		t.Fatalf("low-confidence member got %g W, want the even share %g W", budgets[2], per)
	}
	want, _, _ := cluster.ApportionCurves(capW-per, 45,
		[][]cluster.CapPoint{learnedCurve(100), learnedCurve(80)})
	if budgets[0] != want[0] || budgets[1] != want[1] {
		t.Fatalf("curved members got %g/%g W, full DP says %g/%g W",
			budgets[0], budgets[1], want[0], want[1])
	}
	again := make([]float64, 3)
	if err := c.apportion(capW, alive, again); err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != budgets[i] {
			t.Fatalf("member %d budget moved %g -> %g W with no state change", i, budgets[i], again[i])
		}
	}
	if n := c.dp.LastRecomputed(); n != 0 {
		t.Fatalf("unchanged curves recomputed %d DP layers, want 0", n)
	}
	// Raising the floor above 1 demotes even the converged learner, but
	// never the pre-characterized curve.
	c.cfg.CurveConfFloor = 1.5
	strict := make([]float64, 3)
	if err := c.apportion(capW, alive, strict); err != nil {
		t.Fatal(err)
	}
	if strict[1] != per || strict[2] != per {
		t.Fatalf("learners under a strict floor got %g/%g W, want even shares %g W", strict[1], strict[2], per)
	}
	if strict[0] == per {
		t.Fatal("pre-characterized member demoted to an even share by the learned-curve floor")
	}
}

// TestLearningProbeNoFlapWithinInterval is the satellite regression for
// the curveless-fallback contract: a learning agent may move its
// self-cap at most once per protocol interval — ticks inside an
// interval never flap the enforced cap.
func TestLearningProbeNoFlapWithinInterval(t *testing.T) {
	ev := testEvaluator(t, 1, nil)
	a, err := NewAgent(AgentConfig{
		ID: 0, Backend: NewSimBackend(ev, 0),
		Learn: &cf.OnlineConfig{Epsilon: 0.5, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Learning() {
		t.Fatal("agent with Learn config reports Learning() == false")
	}
	_, err = a.Assign(AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0,
		CapW: 600, Iv: 1, LeaseIv: 2, IvS: 300})
	if err != nil {
		t.Fatal(err)
	}
	if a.CapW() > 600 {
		t.Fatalf("probe cap %g W exceeds the 600 W grant", a.CapW())
	}
	cap0 := a.CapW()
	for ts := 10.0; ts < 300; ts += 10 {
		if err := a.Tick(ts); err != nil {
			t.Fatal(err)
		}
		if a.CapW() != cap0 {
			t.Fatalf("t=%g: cap flapped %g -> %g W within interval 1", ts, cap0, a.CapW())
		}
	}
	// The next interval may move the probe once; after that it must hold
	// again until the following boundary.
	if err := a.Tick(310); err != nil {
		t.Fatal(err)
	}
	cap1 := a.CapW()
	for ts := 320.0; ts < 590; ts += 10 {
		if err := a.Tick(ts); err != nil {
			t.Fatal(err)
		}
		if a.CapW() != cap1 {
			t.Fatalf("t=%g: cap flapped %g -> %g W within interval 2", ts, cap1, a.CapW())
		}
	}
}

// TestPerMemberClockSkewGauge pins the ps_ctrl_clock_skew_intervals
// member series: a coordinator ahead of a stale fleet shows each
// member's lag, and the lag closes once grants carry fresh intervals.
func TestPerMemberClockSkewGauge(t *testing.T) {
	ev := testEvaluator(t, 2, nil)
	flt, err := StartSimFleet(ev, "skew")
	if err != nil {
		t.Fatal(err)
	}
	defer flt.Close()
	hub := telemetry.New(0)
	coord, err := New(Config{Agents: flt.Refs(), LeaseIv: 2, IntervalS: 300, Telemetry: hub})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	// A restarted leader that already minted interval 3 over a fleet
	// that has seen none of them.
	coord.iv.Store(3)
	if _, err := coord.Observe(context.Background(), 0, 600); err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		var buf bytes.Buffer
		if err := hub.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := dump()
	for _, want := range []string{
		`ps_ctrl_clock_skew_intervals{member="0"} 3`,
		`ps_ctrl_clock_skew_intervals{member="1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	// Two leading intervals later the fleet echoes the mints and every
	// member's lag has closed.
	for s := 1; s <= 2; s++ {
		if _, err := coord.Step(context.Background(), float64(s)*300, 600); err != nil {
			t.Fatal(err)
		}
	}
	out = dump()
	for _, want := range []string{
		`ps_ctrl_clock_skew_intervals{member="0"} 0`,
		`ps_ctrl_clock_skew_intervals{member="1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("post-grant metrics missing %q:\n%s", want, out)
		}
	}
}

// TestDPWorkCounters pins ps_ctrl_dp_layers_rebuilt_total and
// ps_ctrl_dp_cert_fallbacks_total: they add up exactly what the
// apportioner reports call by call — layers rebuilt, certificates failed
// — through a cold table, an unchanged interval, a changed curve and a
// curve that turns into its neighbour's twin, where every split between
// the two ties and the reordered answer cannot be certified.
func TestDPWorkCounters(t *testing.T) {
	line := func(slope float64) []cluster.CapPoint {
		out := make([]cluster.CapPoint, 21)
		for k := range out {
			w := 45 + float64(k)*cluster.ServerCapStepW
			out[k] = cluster.CapPoint{CapW: w, Perf: float64(k) * slope, GridW: w}
		}
		return out
	}
	hub := telemetry.New(0)
	c := &Coordinator{cfg: Config{Strategy: StrategyUtility, FloorW: 45}, tel: newCtrlTel(hub)}
	c.members = []*member{{curve: line(0.125)}, {curve: line(0.25)}, {curve: learnedCurve(90)}}
	alive := []bool{true, true, true}
	budgets := make([]float64, 3)
	layers, fallbacks := 0, 0
	for step, change := range []func(){
		func() {},
		func() {},
		func() { c.members[2].curve = learnedCurve(70) },
		func() { c.members[0].curve = line(0.25) },
	} {
		change()
		if err := c.apportion(200, alive, budgets); err != nil {
			t.Fatal(err)
		}
		layers += c.dp.LastRecomputed()
		if c.dp.LastFellBack() {
			fallbacks++
		}
		if step == 1 && c.dp.LastRecomputed() != 0 {
			t.Fatalf("an unchanged interval rebuilt %d layers", c.dp.LastRecomputed())
		}
	}
	if fallbacks == 0 {
		t.Fatal("the twin curves never failed a certificate: the fallback counter went untested")
	}
	var buf bytes.Buffer
	if err := hub.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("ps_ctrl_dp_layers_rebuilt_total %d\n", layers),
		fmt.Sprintf("ps_ctrl_dp_cert_fallbacks_total %d\n", fallbacks),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}
