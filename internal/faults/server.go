package faults

import (
	"fmt"

	"powerstruggle/internal/simhw"
)

// Server wraps a simulated platform with injected actuator and telemetry
// faults. It presents the same method set as *simhw.Server, so consumers
// that program against a small platform interface accept either; the
// unwrapped server remains the fault-free fast path.
//
// Reads (power, slot state) pass through untouched — the watchdog must
// see the platform's true draw, exactly as a real power meter sits
// outside the faulty actuation path.
type Server struct {
	inj *Injector
	hw  *simhw.Server
}

// NewServer wraps hw with the injector's fault model.
func NewServer(inj *Injector, hw *simhw.Server) *Server {
	return &Server{inj: inj, hw: hw}
}

// Underlying returns the wrapped fault-free server.
func (s *Server) Underlying() *simhw.Server { return s.hw }

// actuationFault centralizes the per-write failure draws shared by every
// actuation: the dropout window first (no stream draw — it is a time
// window, not a random event), then the transient write failure.
func (s *Server) actuationFault(target, what string) error {
	t := s.hw.Now()
	if s.inj.droppedOut(t) {
		s.inj.record(t, "server-dropout", target, what+" refused: server dropped out")
		return fmt.Errorf("%s: %w", what, ErrDropout)
	}
	if s.inj.hit(s.inj.cfg.KnobWriteFailP) {
		s.inj.record(t, "knob-write-fail", target, what+" failed transiently")
		return fmt.Errorf("%s: %w", what, ErrTransient)
	}
	return nil
}

// Claim passes through: placement is a scheduler operation, not a
// hardware actuation.
func (s *Server) Claim(cores int) (simhw.SlotID, error) { return s.hw.Claim(cores) }

// Release passes through.
func (s *Server) Release(id simhw.SlotID) error { return s.hw.Release(id) }

// SetKnobs applies an (f, n, m) actuation, possibly failing transiently,
// sticking the DVFS transition at the previous frequency, or applying
// the previous DRAM limit (delayed RAPL write). Stuck and delayed writes
// report success — the dangerous case the cap-breach watchdog exists
// for.
func (s *Server) SetKnobs(id simhw.SlotID, freqGHz float64, cores int, memWatts float64) error {
	target := fmt.Sprintf("slot-%d", id)
	if err := s.actuationFault(target, "knob write"); err != nil {
		return err
	}
	prev, prevErr := s.hw.Slot(id)
	if prevErr == nil {
		if s.inj.hit(s.inj.cfg.StuckDVFSP) {
			if prev.FreqGHz != freqGHz {
				s.inj.record(s.hw.Now(), "stuck-dvfs", target,
					fmt.Sprintf("frequency stuck at %.2f GHz (wanted %.2f)", prev.FreqGHz, freqGHz))
			}
			freqGHz = prev.FreqGHz
		}
		if s.inj.hit(s.inj.cfg.MemDelayP) {
			if prev.MemWatts != memWatts {
				s.inj.record(s.hw.Now(), "mem-limit-delay", target,
					fmt.Sprintf("DRAM limit held at %.1f W (wanted %.1f)", prev.MemWatts, memWatts))
			}
			memWatts = prev.MemWatts
		}
	}
	return s.hw.SetKnobs(id, freqGHz, cores, memWatts)
}

// SetLoad passes through: it reports what the occupant does, it is not
// an actuation the runtime issues.
func (s *Server) SetLoad(id simhw.SlotID, activity, memDrawWatts float64) error {
	return s.hw.SetLoad(id, activity, memDrawWatts)
}

// SetRunning starts or suspends a slot, possibly failing transiently. A
// failed suspend leaves the task running — the rogue-consumer case the
// watchdog must catch.
func (s *Server) SetRunning(id simhw.SlotID, running bool) error {
	what := "suspend"
	if running {
		what = "resume"
	}
	if err := s.actuationFault(fmt.Sprintf("slot-%d", id), what+" write"); err != nil {
		return err
	}
	return s.hw.SetRunning(id, running)
}

// Sleep drives the sockets into PC6, possibly failing transiently.
func (s *Server) Sleep() error {
	if err := s.actuationFault("", "sleep command"); err != nil {
		return err
	}
	return s.hw.Sleep()
}

// Sleeping passes through.
func (s *Server) Sleeping() bool { return s.hw.Sleeping() }

// Slot passes through: state readback is the verification channel the
// hardened executor uses, and real MSR reads are far more reliable than
// cross-stack writes.
func (s *Server) Slot(id simhw.SlotID) (simhw.SlotState, error) { return s.hw.Slot(id) }

// PowerWatts passes through: the watchdog's power meter sits outside the
// faulty actuation path.
func (s *Server) PowerWatts() float64 { return s.hw.PowerWatts() }

// AppPowerWatts passes through.
func (s *Server) AppPowerWatts(id simhw.SlotID) (float64, error) { return s.hw.AppPowerWatts(id) }

// Step passes through: time itself does not fault.
func (s *Server) Step(dt float64) { s.hw.Step(dt) }

// Waking passes through.
func (s *Server) Waking() bool { return s.hw.Waking() }

// Now passes through.
func (s *Server) Now() float64 { return s.hw.Now() }

// FreeCores passes through.
func (s *Server) FreeCores() int { return s.hw.FreeCores() }

// FreeChannels passes through.
func (s *Server) FreeChannels() int { return s.hw.FreeChannels() }
