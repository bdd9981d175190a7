package simhw_test

import (
	"math/rand"
	"testing"

	"powerstruggle/internal/faults"
	"powerstruggle/internal/simhw"
)

// actuator is the write surface both *simhw.Server and *faults.Server
// present.
type actuator interface {
	SetKnobs(id simhw.SlotID, freqGHz float64, cores int, memWatts float64) error
	SetLoad(id simhw.SlotID, activity, memDrawWatts float64) error
	SetRunning(id simhw.SlotID, running bool) error
	Sleep() error
}

// TestSlotPowerCache drives random actuation sequences, directly and
// through the fault wrapper's stuck-DVFS and delayed DRAM-limit writes,
// and holds every slot's cached draw to the uncached formula bit for bit
// after each write.
func TestSlotPowerCache(t *testing.T) {
	cfg := simhw.DefaultConfig()
	cfg.ChannelSharing = 2
	for _, wrapped := range []bool{false, true} {
		raw, err := simhw.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var srv actuator = raw
		if wrapped {
			inj, err := faults.NewInjector(faults.Config{Seed: 3, StuckDVFSP: 0.4, MemDelayP: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			srv = faults.NewServer(inj, raw)
		}
		var ids []simhw.SlotID
		for i := 0; i < 3; i++ {
			id, err := raw.Claim(3)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 3000; step++ {
			id := ids[rng.Intn(len(ids))]
			// Errors are part of the sequence: a core count the pool
			// cannot grant, or a sleep while a slot runs, must leave the
			// cache as consistent as a write that lands.
			switch rng.Intn(4) {
			case 0:
				_ = srv.SetKnobs(id, 1+rng.Float64()*1.2, 1+rng.Intn(4), 2+rng.Float64()*9)
			case 1:
				_ = srv.SetLoad(id, rng.Float64()*1.2-0.1, rng.Float64()*11)
			case 2:
				_ = srv.SetRunning(id, rng.Intn(2) == 0)
			case 3:
				_ = srv.Sleep()
			}
			for _, id := range ids {
				st, err := raw.Slot(id)
				if err != nil {
					t.Fatal(err)
				}
				want := 0.0
				if st.Running && !raw.Sleeping() {
					want = float64(st.Cores)*cfg.CoreWatts(st.FreqGHz, st.Activity) + st.MemDrawWatts
				}
				got, err := raw.AppPowerWatts(id)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("wrapped=%v step %d slot %d %+v: AppPowerWatts %.17g, uncached %.17g",
						wrapped, step, id, st, got, want)
				}
			}
		}
	}
}
