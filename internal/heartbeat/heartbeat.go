// Package heartbeat implements the Application Heartbeats interface the
// paper uses to measure application performance (Hoffmann et al., ref
// [41]): applications emit a beat per unit of useful work, and the
// runtime reads windowed beat rates to populate its performance matrix
// and detect phase changes.
package heartbeat

import (
	"fmt"
	"sort"
	"sync"
)

// beat is one recorded heartbeat batch.
type beat struct {
	t     float64 // emission time, seconds
	count float64 // beats in the batch (fractional allowed for models)
}

// Monitor collects heartbeats from registered producers and serves
// windowed rate queries. Time is caller-supplied (simulated or wall
// clock), monotone non-decreasing per producer.
//
// Monitor is safe for concurrent use.
type Monitor struct {
	mu    sync.Mutex
	prods map[string]*producer
}

type producer struct {
	// beats[head:] is the live window; trim advances head and compacts
	// only once the dropped prefix is the larger half.
	beats  []beat
	head   int
	total  float64
	lastT  float64
	window float64
}

// NewMonitor returns an empty heartbeat monitor.
func NewMonitor() *Monitor {
	return &Monitor{prods: make(map[string]*producer)}
}

// Register adds a producer with the given rate-averaging window in
// seconds. Registering an existing name resets its history.
func (m *Monitor) Register(name string, windowSeconds float64) error {
	if name == "" {
		return fmt.Errorf("heartbeat: producer needs a name")
	}
	if windowSeconds <= 0 {
		return fmt.Errorf("heartbeat: %s: window must be positive, got %g", name, windowSeconds)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prods[name] = &producer{window: windowSeconds}
	return nil
}

// Unregister removes a producer and its history.
func (m *Monitor) Unregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.prods, name)
}

// Beat records count heartbeats from name at time t (seconds). Beats must
// arrive in non-decreasing time order per producer.
func (m *Monitor) Beat(name string, t, count float64) error {
	if count < 0 {
		return fmt.Errorf("heartbeat: %s: negative beat count %g", name, count)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.prods[name]
	if !ok {
		return fmt.Errorf("heartbeat: unknown producer %q", name)
	}
	if t < p.lastT {
		return fmt.Errorf("heartbeat: %s: time went backwards (%g after %g)", name, t, p.lastT)
	}
	p.lastT = t
	p.total += count
	p.beats = append(p.beats, beat{t: t, count: count})
	p.trim(t)
	return nil
}

// trim drops beats older than the window (keeping one beat before the
// window edge so a sparse producer still has a rate).
func (p *producer) trim(now float64) {
	cut := now - p.window
	live := p.beats[p.head:]
	p.head += sort.Search(len(live), func(i int) bool { return live[i].t >= cut })
	if p.head > len(p.beats)/2 {
		p.beats = append(p.beats[:0], p.beats[p.head:]...)
		p.head = 0
	}
}

// Rate returns the producer's beat rate (beats/second) over its window
// ending at time now. A producer with no beats in the window reports 0.
func (m *Monitor) Rate(name string, now float64) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.prods[name]
	if !ok {
		return 0, fmt.Errorf("heartbeat: unknown producer %q", name)
	}
	cut := now - p.window
	var sum float64
	for _, b := range p.beats[p.head:] {
		if b.t >= cut && b.t <= now {
			sum += b.count
		}
	}
	return sum / p.window, nil
}

// Total returns the producer's lifetime beat count.
func (m *Monitor) Total(name string) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.prods[name]
	if !ok {
		return 0, fmt.Errorf("heartbeat: unknown producer %q", name)
	}
	return p.total, nil
}

// Producers returns the registered producer names in sorted order.
func (m *Monitor) Producers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.prods))
	for n := range m.prods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
