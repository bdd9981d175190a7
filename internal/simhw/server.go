package simhw

import (
	"fmt"
	"sort"
	"sync"
)

// SlotID identifies a placement slot (one co-located application's set of
// cores and DRAM channel) on a Server.
type SlotID int

// SlotState is the actuation state of one placement slot: the paper's
// three intra-application knobs plus a run/suspend bit (the knob the
// Coordinator's time multiplexing uses).
type SlotState struct {
	// Running is false while the slot's task is suspended (SIGSTOP in
	// the paper's prototype). A suspended slot draws no dynamic power
	// but keeps its core/channel reservation.
	Running bool
	// FreqGHz is the DVFS setting of all the slot's active cores.
	FreqGHz float64
	// Cores is the number of un-gated cores (the consolidation knob n).
	Cores int
	// MemWatts is the DRAM RAPL limit on the slot's channel (knob m).
	MemWatts float64
	// Activity is the core activity factor the occupant presents,
	// in [0, 1]; it scales switching power.
	Activity float64
	// MemDrawWatts is how much of the DRAM limit the occupant actually
	// pulls; a compute-bound task never reaches its channel cap.
	MemDrawWatts float64
}

// Server is a running instance of the simulated platform. Slots are
// claimed by applications; their knob state, together with the socket
// sleep state, fully determines instantaneous power.
//
// Server is safe for concurrent use.
type Server struct {
	cfg Config

	mu        sync.Mutex
	slots     map[SlotID]*SlotState
	nextSlot  SlotID
	freeCores int
	freeChans int

	now         float64 // seconds since construction
	sleeping    bool    // PC6: all sockets in deep sleep
	wakePending float64 // seconds of wake latency still to serve
}

// NewServer builds a Server from cfg. It panics only on programmer error
// (invalid config); use Config.Validate first for user-supplied configs.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sharing := cfg.ChannelSharing
	if sharing < 1 {
		sharing = 1
	}
	return &Server{
		cfg:       cfg,
		slots:     make(map[SlotID]*SlotState),
		freeCores: cfg.TotalCores(),
		freeChans: cfg.MemChannels * sharing,
	}, nil
}

// Config returns the platform description the server was built from.
func (s *Server) Config() Config { return s.cfg }

// Claim reserves cores cores and one DRAM channel for a new co-located
// application and returns its slot. The slot starts suspended at minimum
// knob settings. Claim fails when the direct resources are exhausted —
// the paper's premise is that direct resources suffice, so callers treat
// this as a scheduling error, not a power condition.
func (s *Server) Claim(cores int) (SlotID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cores <= 0 {
		return 0, fmt.Errorf("simhw: claim of %d cores is invalid", cores)
	}
	if cores > s.freeCores {
		return 0, fmt.Errorf("simhw: claim of %d cores exceeds %d free", cores, s.freeCores)
	}
	if s.freeChans == 0 {
		return 0, fmt.Errorf("simhw: no free DRAM channel slot")
	}
	id := s.nextSlot
	s.nextSlot++
	s.freeCores -= cores
	s.freeChans--
	s.slots[id] = &SlotState{
		Running:  false,
		FreqGHz:  s.cfg.FreqMinGHz,
		Cores:    cores,
		MemWatts: s.cfg.MemMinWatts,
		Activity: 1,
	}
	return id, nil
}

// Release returns a slot's cores and channel to the free pool.
func (s *Server) Release(id SlotID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.slots[id]
	if !ok {
		return fmt.Errorf("simhw: release of unknown slot %d", id)
	}
	s.freeCores += st.Cores
	s.freeChans++
	delete(s.slots, id)
	return nil
}

// Slots returns the live slot IDs in ascending order.
func (s *Server) Slots() []SlotID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SlotID, 0, len(s.slots))
	for id := range s.slots {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetKnobs applies an (f, n, m) actuation to a slot, snapping each knob
// to its hardware ladder. Growing the core count draws from the free
// pool; shrinking returns cores to it.
func (s *Server) SetKnobs(id SlotID, freqGHz float64, cores int, memWatts float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.slots[id]
	if !ok {
		return fmt.Errorf("simhw: knobs for unknown slot %d", id)
	}
	if cores <= 0 {
		return fmt.Errorf("simhw: slot %d cannot run on %d cores", id, cores)
	}
	delta := cores - st.Cores
	if delta > s.freeCores {
		return fmt.Errorf("simhw: slot %d wants %d more cores, only %d free", id, delta, s.freeCores)
	}
	s.freeCores -= delta
	st.Cores = cores
	st.FreqGHz = s.cfg.ClampFreq(freqGHz)
	st.MemWatts = s.cfg.ClampMem(memWatts)
	return nil
}

// SetLoad updates the occupant-driven part of a slot's state: its core
// activity factor and actual DRAM draw (clamped to the channel limit).
func (s *Server) SetLoad(id SlotID, activity, memDrawWatts float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.slots[id]
	if !ok {
		return fmt.Errorf("simhw: load for unknown slot %d", id)
	}
	if activity < 0 {
		activity = 0
	}
	if activity > 1 {
		activity = 1
	}
	st.Activity = activity
	if memDrawWatts > st.MemWatts {
		memDrawWatts = st.MemWatts
	}
	if memDrawWatts < 0 {
		memDrawWatts = 0
	}
	st.MemDrawWatts = memDrawWatts
	return nil
}

// SetRunning starts or suspends a slot's task (the Coordinator's time
// knob). Starting a slot wakes the sockets if they were in PC6.
func (s *Server) SetRunning(id SlotID, running bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.slots[id]
	if !ok {
		return fmt.Errorf("simhw: run state for unknown slot %d", id)
	}
	st.Running = running
	if running && s.sleeping {
		s.sleeping = false
		s.wakePending = s.cfg.PC6WakeSeconds
	}
	return nil
}

// Sleep drives all sockets into PC6 deep sleep. It fails if any slot is
// still running; the coordinator suspends everything first (the paper's
// applications "coordinate to put the server to deep sleep").
func (s *Server) Sleep() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, st := range s.slots {
		if st.Running {
			return fmt.Errorf("simhw: cannot enter PC6 while slot %d runs", id)
		}
	}
	s.sleeping = true
	return nil
}

// Sleeping reports whether the sockets are in PC6.
func (s *Server) Sleeping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sleeping
}

// Slot returns a copy of a slot's current state.
func (s *Server) Slot(id SlotID) (SlotState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.slots[id]
	if !ok {
		return SlotState{}, fmt.Errorf("simhw: unknown slot %d", id)
	}
	return *st, nil
}

// slotPowerLocked computes one slot's instantaneous dynamic draw.
func (s *Server) slotPowerLocked(st *SlotState) float64 {
	if !st.Running {
		return 0
	}
	return float64(st.Cores)*s.cfg.CoreWatts(st.FreqGHz, st.Activity) + st.MemDrawWatts
}

// PowerWatts returns the server's instantaneous draw: the idle floor,
// plus P_cm and per-slot dynamic power when awake.
func (s *Server) PowerWatts() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.powerLocked()
}

func (s *Server) powerLocked() float64 {
	total := s.cfg.PIdleWatts
	if s.sleeping {
		return total
	}
	anyRunning := false
	for _, st := range s.slots {
		if st.Running {
			anyRunning = true
			total += s.slotPowerLocked(st)
		}
	}
	if anyRunning {
		total += s.cfg.PCmWatts
	}
	return total
}

// AppPowerWatts returns one slot's instantaneous dynamic draw (its P_X).
func (s *Server) AppPowerWatts(id SlotID) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.slots[id]
	if !ok {
		return 0, fmt.Errorf("simhw: unknown slot %d", id)
	}
	if s.sleeping {
		return 0, nil
	}
	return s.slotPowerLocked(st), nil
}

// Step advances simulated time by dt seconds, burning down any pending
// PC6 wake latency. It returns the average server power over the step.
func (s *Server) Step(dt float64) float64 {
	if dt <= 0 {
		return s.PowerWatts()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.powerLocked()
	s.now += dt
	if s.wakePending > 0 {
		s.wakePending -= dt
		if s.wakePending < 0 {
			s.wakePending = 0
		}
	}
	return p
}

// Waking reports whether the server is still serving PC6 exit latency;
// slots make no progress until it clears.
func (s *Server) Waking() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wakePending > 0
}

// Now returns seconds of simulated time since construction.
func (s *Server) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// FreeCores returns the number of unclaimed cores.
func (s *Server) FreeCores() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freeCores
}

// FreeChannels returns the number of unclaimed DRAM channels.
func (s *Server) FreeChannels() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freeChans
}
