package simhw

import (
	"math"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewServerRejectsInvalidConfig(t *testing.T) {
	c := DefaultConfig()
	c.Sockets = 0
	if _, err := NewServer(c); err == nil {
		t.Fatal("NewServer accepted invalid config")
	}
}

func TestClaimReleaseAccounting(t *testing.T) {
	s := newTestServer(t)
	if got := s.FreeCores(); got != 12 {
		t.Fatalf("fresh server has %d free cores, want 12", got)
	}
	a, err := s.Claim(6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Claim(6)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FreeCores(); got != 0 {
		t.Errorf("after two 6-core claims, %d free cores, want 0", got)
	}
	if got := s.FreeChannels(); got != 0 {
		t.Errorf("after two claims, %d free channels, want 0", got)
	}
	if _, err := s.Claim(1); err == nil {
		t.Error("third claim succeeded with no free channel")
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeCores(); got != 6 {
		t.Errorf("after release, %d free cores, want 6", got)
	}
	if err := s.Release(a); err == nil {
		t.Error("double release succeeded")
	}
	if slots := s.Slots(); len(slots) != 1 || slots[0] != b {
		t.Errorf("Slots = %v, want [%d]", slots, b)
	}
}

func TestClaimRejectsBadSizes(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Claim(0); err == nil {
		t.Error("claim of 0 cores succeeded")
	}
	if _, err := s.Claim(13); err == nil {
		t.Error("claim of 13 cores succeeded on a 12-core server")
	}
}

func TestSetKnobsGrowsAndShrinksCorePool(t *testing.T) {
	s := newTestServer(t)
	id, err := s.Claim(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetKnobs(id, 2.0, 6, 10); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeCores(); got != 6 {
		t.Errorf("after growing to 6 cores, %d free, want 6", got)
	}
	if err := s.SetKnobs(id, 1.5, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeCores(); got != 11 {
		t.Errorf("after shrinking to 1 core, %d free, want 11", got)
	}
	if err := s.SetKnobs(id, 2.0, 20, 3); err == nil {
		t.Error("growing beyond the pool succeeded")
	}
	if err := s.SetKnobs(id, 2.0, 0, 3); err == nil {
		t.Error("zero-core knob setting succeeded")
	}
	st, err := s.Slot(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cores != 1 || st.FreqGHz != 1.5 || st.MemWatts != 3 {
		t.Errorf("slot state = %+v, want 1 core at 1.5 GHz, 3 W", st)
	}
}

func TestSetLoadClamps(t *testing.T) {
	s := newTestServer(t)
	id, _ := s.Claim(2)
	if err := s.SetKnobs(id, 2.0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLoad(id, 2.5, 100); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Slot(id)
	if st.Activity != 1 {
		t.Errorf("activity = %g, want clamped to 1", st.Activity)
	}
	if st.MemDrawWatts != st.MemWatts {
		t.Errorf("mem draw = %g, want clamped to limit %g", st.MemDrawWatts, st.MemWatts)
	}
	if err := s.SetLoad(id, -1, -5); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Slot(id)
	if st.Activity != 0 || st.MemDrawWatts != 0 {
		t.Errorf("negative load not floored: %+v", st)
	}
}

func TestPowerComposition(t *testing.T) {
	cfg := DefaultConfig()
	s := newTestServer(t)
	if got := s.PowerWatts(); got != cfg.PIdleWatts {
		t.Fatalf("empty server draws %g, want idle %g", got, cfg.PIdleWatts)
	}
	id, _ := s.Claim(6)
	if err := s.SetKnobs(id, 2.0, 6, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLoad(id, 1, 10); err != nil {
		t.Fatal(err)
	}
	// Suspended slot draws nothing beyond idle.
	if got := s.PowerWatts(); got != cfg.PIdleWatts {
		t.Errorf("suspended slot server draws %g, want %g", got, cfg.PIdleWatts)
	}
	if err := s.SetRunning(id, true); err != nil {
		t.Fatal(err)
	}
	want := cfg.PIdleWatts + cfg.PCmWatts + 6*cfg.CoreWatts(2.0, 1) + 10
	if got := s.PowerWatts(); math.Abs(got-want) > 1e-9 {
		t.Errorf("running server draws %g, want %g", got, want)
	}
	appW, err := s.AppPowerWatts(id)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(appW-(6*cfg.CoreWatts(2.0, 1)+10)) > 1e-9 {
		t.Errorf("app draws %g, want %g", appW, 6*cfg.CoreWatts(2.0, 1)+10)
	}
}

func TestStepAccumulatesEnergy(t *testing.T) {
	s := newTestServer(t)
	id, _ := s.Claim(4)
	if err := s.SetKnobs(id, 1.6, 4, 6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLoad(id, 0.8, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRunning(id, true); err != nil {
		t.Fatal(err)
	}
	// Draw is constant between actuations: reading it before each step
	// and multiplying by dt sums to the energy drawn.
	p := s.PowerWatts()
	var energyJ float64
	for i := 0; i < 100; i++ {
		energyJ += s.PowerWatts() * 0.01
		s.Step(0.01)
	}
	if got := s.Now(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Now = %g, want 1.0", got)
	}
	if math.Abs(energyJ-p) > 1e-6 {
		t.Errorf("1 s at %g W accumulated %g J", p, energyJ)
	}
}

func TestSleepRequiresSuspension(t *testing.T) {
	s := newTestServer(t)
	id, _ := s.Claim(2)
	if err := s.SetRunning(id, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Sleep(); err == nil {
		t.Fatal("Sleep succeeded with a running slot")
	}
	if err := s.SetRunning(id, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Sleep(); err != nil {
		t.Fatal(err)
	}
	if !s.Sleeping() {
		t.Fatal("server not sleeping after Sleep")
	}
	if got := s.PowerWatts(); got != DefaultConfig().PIdleWatts {
		t.Errorf("sleeping server draws %g, want idle floor", got)
	}
	// Waking a slot exits PC6 and charges the wake latency.
	if err := s.SetRunning(id, true); err != nil {
		t.Fatal(err)
	}
	if s.Sleeping() {
		t.Error("server still sleeping after a slot started")
	}
	if !s.Waking() {
		t.Error("no wake latency pending after PC6 exit")
	}
	s.Step(0.001) // > 300 us
	if s.Waking() {
		t.Error("wake latency did not clear")
	}
}

func TestUnknownSlotErrors(t *testing.T) {
	s := newTestServer(t)
	const ghost = SlotID(99)
	if err := s.SetKnobs(ghost, 2, 1, 3); err == nil {
		t.Error("SetKnobs on unknown slot succeeded")
	}
	if err := s.SetLoad(ghost, 1, 1); err == nil {
		t.Error("SetLoad on unknown slot succeeded")
	}
	if err := s.SetRunning(ghost, true); err == nil {
		t.Error("SetRunning on unknown slot succeeded")
	}
	if _, err := s.Slot(ghost); err == nil {
		t.Error("Slot on unknown slot succeeded")
	}
	if _, err := s.AppPowerWatts(ghost); err == nil {
		t.Error("AppPowerWatts on unknown slot succeeded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newTestServer(t)
	ids := make([]SlotID, 2)
	for i := range ids {
		id, err := s.Claim(3)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.SetKnobs(id, 1.5, 3, 5)
				_ = s.SetLoad(id, 0.5, 2)
				_ = s.SetRunning(id, i%2 == 0)
				_, _ = s.AppPowerWatts(id)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Step(0.001)
			_ = s.PowerWatts()
		}
	}()
	wg.Wait()
}

func TestChannelSharingAdmitsMoreSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChannelSharing = 2
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four 3-core claims fit with two sharers per channel.
	for i := 0; i < 4; i++ {
		if _, err := s.Claim(3); err != nil {
			t.Fatalf("claim %d: %v", i, err)
		}
	}
	if _, err := s.Claim(1); err == nil {
		t.Error("fifth claim succeeded beyond the channel-slot budget")
	}
}

// TestPowerWattsSumsInSlotOrder pins the order slot draws are summed in.
// The three draws below round differently in each order, so summing them
// in map order gave a different PowerWatts from call to call.
func TestPowerWattsSumsInSlotOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChannelSharing = 3
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []SlotID
	for _, sl := range []struct {
		cores   int
		memDraw float64
	}{{3, 3.1}, {3, 4.7}, {4, 4.7}} {
		id, err := s.Claim(sl.cores)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetKnobs(id, 1.3, sl.cores, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.SetLoad(id, 0.37, sl.memDraw); err != nil {
			t.Fatal(err)
		}
		if err := s.SetRunning(id, true); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want := cfg.PIdleWatts
	for _, id := range ids {
		w, err := s.AppPowerWatts(id)
		if err != nil {
			t.Fatal(err)
		}
		want += w
	}
	want += cfg.PCmWatts
	for i := 0; i < 200; i++ {
		if got := s.PowerWatts(); got != want {
			t.Fatalf("call %d: PowerWatts = %.17g, want the slot-ID-order sum %.17g", i, got, want)
		}
	}
}
