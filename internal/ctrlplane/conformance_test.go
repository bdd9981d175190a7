package ctrlplane

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"powerstruggle/internal/faults"
)

// testElectionConformance drives one election store through the shared
// invariant table every implementation must satisfy identically:
//
//   - epochs are strictly monotonic — every change of leadership mints
//     a fresh epoch, including the same node regaining a lapsed term;
//   - an epoch never has two leaders;
//   - a renewal preserves the epoch and only extends the expiry;
//   - resign preserves the epoch (the next winner bumps it);
//   - an expired or resigned term is reclaimable by any candidate.
//
// The three stores — in-process, file-backed, and quorum-replicated —
// must be indistinguishable through this table; the HA layer treats
// them interchangeably.
func testElectionConformance(t *testing.T, e Election) {
	t.Helper()
	const ttl = 10 * time.Second

	// Cross-cutting invariants, re-checked after every campaign.
	leaderOf := map[uint64]string{}
	lastEpoch := uint64(0)
	campaign := func(stage, id string, at time.Duration) Term {
		t.Helper()
		term, err := e.Campaign(id, t0.Add(at), ttl)
		if err != nil {
			t.Fatalf("%s: campaign %s: %v", stage, id, err)
		}
		if term.Epoch == 0 || term.Leader == "" {
			t.Fatalf("%s: campaign returned an empty term %+v", stage, term)
		}
		if term.Epoch < lastEpoch {
			t.Fatalf("%s: epoch regressed %d -> %d", stage, lastEpoch, term.Epoch)
		}
		if prev, seen := leaderOf[term.Epoch]; seen && prev != term.Leader {
			t.Fatalf("%s: epoch %d had two leaders %q and %q", stage, term.Epoch, prev, term.Leader)
		}
		leaderOf[term.Epoch] = term.Leader
		lastEpoch = term.Epoch
		return term
	}

	stages := []struct {
		name       string
		id         string
		at         time.Duration
		resign     string // resign this id before campaigning
		wantLeader string
		wantEpoch  uint64
		wantExp    time.Duration // expected expiry offset from t0
	}{
		{name: "bootstrap mints epoch 1", id: "a", at: 0,
			wantLeader: "a", wantEpoch: 1, wantExp: ttl},
		{name: "renewal preserves the epoch", id: "a", at: 5 * time.Second,
			wantLeader: "a", wantEpoch: 1, wantExp: 15 * time.Second},
		{name: "an in-force term beats a challenger", id: "b", at: 10 * time.Second,
			wantLeader: "a", wantEpoch: 1, wantExp: 15 * time.Second},
		{name: "an expired term is reclaimable and bumps the epoch", id: "b", at: 16 * time.Second,
			wantLeader: "b", wantEpoch: 2, wantExp: 26 * time.Second},
		{name: "the deposed leader only observes", id: "a", at: 17 * time.Second,
			wantLeader: "b", wantEpoch: 2, wantExp: 26 * time.Second},
		{name: "resign keeps the epoch for the next winner to bump", id: "a", at: 18 * time.Second, resign: "b",
			wantLeader: "a", wantEpoch: 3, wantExp: 28 * time.Second},
		{name: "a lapsed term is reclaimable by its own ex-holder under a fresh epoch", id: "a", at: 100 * time.Second,
			wantLeader: "a", wantEpoch: 4, wantExp: 110 * time.Second},
		{name: "resign by a non-holder is a no-op", id: "a", at: 101 * time.Second, resign: "b",
			wantLeader: "a", wantEpoch: 4, wantExp: 111 * time.Second},
	}
	for _, s := range stages {
		if s.resign != "" {
			if err := e.Resign(s.resign); err != nil {
				t.Fatalf("%s: resign %s: %v", s.name, s.resign, err)
			}
		}
		term := campaign(s.name, s.id, s.at)
		if term.Leader != s.wantLeader || term.Epoch != s.wantEpoch {
			t.Fatalf("%s: term %+v, want leader %q under epoch %d", s.name, term, s.wantLeader, s.wantEpoch)
		}
		if !term.Expires.Equal(t0.Add(s.wantExp)) {
			t.Fatalf("%s: expiry %v, want %v", s.name, term.Expires, t0.Add(s.wantExp))
		}
	}

	// Leadership thrash: alternate winners past each expiry. The
	// per-campaign checks above keep asserting strict monotonicity and
	// one-leader-per-epoch throughout.
	now := 200 * time.Second
	for i := 0; i < 10; i++ {
		id := "a"
		if i%2 == 1 {
			id = "b"
		}
		if term := campaign("thrash", id, now); term.Leader != id {
			t.Fatalf("thrash round %d: expired term not taken by %s: %+v", i, id, term)
		}
		now += 2 * ttl
	}

	// Bad campaigns are refused outright and must not disturb the term.
	if _, err := e.Campaign("", t0.Add(now), ttl); err == nil {
		t.Fatal("empty candidate id accepted")
	}
	if _, err := e.Campaign("a", t0.Add(now), 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	campaign("store survives refused campaigns", "a", now)
}

// TestElectionConformance runs the shared invariant table against all
// three stores, unmodified: the suite is the contract that lets the HA
// layer swap stores freely.
func TestElectionConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		testElectionConformance(t, NewMemElection())
	})
	t.Run("file", func(t *testing.T) {
		e, err := NewFileElection(filepath.Join(t.TempDir(), "term.json"))
		if err != nil {
			t.Fatal(err)
		}
		testElectionConformance(t, e)
	})
	t.Run("quorum", func(t *testing.T) {
		pool, err := StartVoterPool(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		e, err := NewQuorumElection(QuorumConfig{Voters: pool.URLs()})
		if err != nil {
			t.Fatal(err)
		}
		testElectionConformance(t, e)
	})
}

// faultyStore wraps an election store with seeded RPC-style faults: a
// campaign may be dropped before it reaches the store (the store never
// saw it) or after (the effect landed, the caller learned nothing) —
// the same ambiguity the net injector gives the quorum store's wire.
type faultyStore struct {
	inner     Election
	dropReqP  float64
	dropRespP float64

	mu  sync.Mutex
	rng *rand.Rand
}

func (f *faultyStore) roll(p float64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < p
}

func (f *faultyStore) Campaign(id string, now time.Time, ttl time.Duration) (Term, error) {
	if f.roll(f.dropReqP) {
		return Term{}, fmt.Errorf("injected campaign drop (request)")
	}
	term, err := f.inner.Campaign(id, now, ttl)
	if err != nil {
		return term, err
	}
	if f.roll(f.dropRespP) {
		return Term{}, fmt.Errorf("injected campaign drop (response)")
	}
	return term, nil
}

func (f *faultyStore) Resign(id string) error {
	if f.roll(f.dropReqP) {
		return fmt.Errorf("injected resign drop")
	}
	return f.inner.Resign(id)
}

// testElectionSafety runs the seeded randomized election-safety
// property against one store: campaigners concurrently campaign with
// skewed clocks while the store's transport (or a fault wrapper)
// drops and delays calls, and no interleaving may ever produce two
// leaders for one epoch or an epoch regression in any campaigner's
// observation sequence. mk builds campaigner i's handle onto the one
// shared store — the quorum variant gives each its own proposer and
// fault injector, like distinct coordinators. minSuccessFrac guards
// against a vacuous pass; the quorum store runs with a lower floor
// because dueling proposers legitimately abandon contended campaigns
// (the HA layer just observes on those) on top of the injected drops.
func testElectionSafety(t *testing.T, seed int64, minSuccessFrac float64, mk func(i int) Election) {
	t.Helper()
	const (
		campaigners = 4
		segments    = 4
		rounds      = 15 // per segment
		ttl         = time.Second
		step        = ttl / 3
	)
	skewRng := rand.New(rand.NewSource(seed))

	type campaigner struct {
		id    string
		e     Election
		skew  time.Duration
		rng   *rand.Rand
		last  uint64 // last observed epoch; must never regress
		wins  int
		succs int
	}
	cs := make([]*campaigner, campaigners)
	for i := range cs {
		cs[i] = &campaigner{
			id:   fmt.Sprintf("cand-%d", i),
			e:    mk(i),
			skew: time.Duration(skewRng.Int63n(int64(ttl))) - ttl/2,
			rng:  rand.New(rand.NewSource(seed + int64(i) + 1)),
		}
	}

	var trackMu sync.Mutex
	leaderOf := map[uint64]string{}
	observe := func(c *campaigner, term Term) {
		trackMu.Lock()
		defer trackMu.Unlock()
		if term.Epoch < c.last {
			t.Errorf("%s: epoch regressed %d -> %d", c.id, c.last, term.Epoch)
		}
		c.last = term.Epoch
		if prev, seen := leaderOf[term.Epoch]; seen && prev != term.Leader {
			t.Errorf("epoch %d has two leaders: %q and %q", term.Epoch, prev, term.Leader)
		}
		leaderOf[term.Epoch] = term.Leader
		c.succs++
		if term.Leader == c.id {
			c.wins++
		}
	}

	// Segments run concurrently inside, with a virtual-clock jump of
	// 2 x ttl between them: past any skew, every clock agrees the term
	// lapsed, so each segment must mint at least one fresh epoch — the
	// liveness half (expired terms are reclaimable under faults), which
	// also keeps the safety half from passing vacuously.
	base := t0
	for seg := 0; seg < segments; seg++ {
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func(c *campaigner) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					// Real-time jitter decorrelates the proposers a
					// little, like coordinators on their own tickers;
					// the virtual campaign clocks below are unaffected.
					time.Sleep(time.Duration(c.rng.Int63n(int64(3 * time.Millisecond))))
					now := base.Add(time.Duration(r)*step + c.skew +
						time.Duration(c.rng.Int63n(int64(step/4))))
					term, err := c.e.Campaign(c.id, now, ttl)
					if err != nil {
						continue // learned nothing; never act on it
					}
					observe(c, term)
					if term.Leader == c.id && c.rng.Intn(10) == 0 {
						_ = c.e.Resign(c.id) // clean handover, sometimes refused
					}
				}
			}(c)
		}
		wg.Wait()
		base = base.Add(time.Duration(rounds)*step + 2*ttl)
	}

	// Guard against a vacuous pass: the fault rates must leave most
	// campaigns decided, and the epoch must have moved once per segment.
	total, wins := 0, 0
	var maxEpoch uint64
	for _, c := range cs {
		total += c.succs
		wins += c.wins
		if c.last > maxEpoch {
			maxEpoch = c.last
		}
	}
	if want := int(minSuccessFrac * float64(campaigners*segments*rounds)); total < want {
		t.Fatalf("only %d of %d campaigns decided, want at least %d — faults ate the test",
			total, campaigners*segments*rounds, want)
	}
	if wins == 0 {
		t.Fatal("no campaigner ever led")
	}
	if maxEpoch < segments {
		t.Fatalf("final epoch %d after %d expiry segments — expired terms were not reclaimed", maxEpoch, segments)
	}
}

// TestElectionSafetyRandomized asserts the two election-safety
// invariants — one leader per epoch, no epoch regression — across all
// three stores under concurrent skewed-clock campaigners and injected
// store faults.
func TestElectionSafetyRandomized(t *testing.T) {
	const seed = 7
	t.Run("mem", func(t *testing.T) {
		store := NewMemElection()
		testElectionSafety(t, seed, 0.5, func(i int) Election {
			return &faultyStore{inner: store, dropReqP: 0.1, dropRespP: 0.1,
				rng: rand.New(rand.NewSource(seed + 100 + int64(i)))}
		})
	})
	t.Run("file", func(t *testing.T) {
		store, err := NewFileElection(filepath.Join(t.TempDir(), "term.json"))
		if err != nil {
			t.Fatal(err)
		}
		testElectionSafety(t, seed, 0.5, func(i int) Election {
			return &faultyStore{inner: store, dropReqP: 0.1, dropRespP: 0.1,
				rng: rand.New(rand.NewSource(seed + 100 + int64(i)))}
		})
	})
	t.Run("quorum", func(t *testing.T) {
		pool, err := StartVoterPool(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		testElectionSafety(t, seed, 0.25, func(i int) Election {
			inj, err := faults.NewNetInjector(faults.NetConfig{
				Seed:      seed + 100 + int64(i),
				DropReqP:  0.05,
				DropRespP: 0.05,
				DelayP:    0.2,
				DelayMax:  5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewQuorumElection(QuorumConfig{Voters: pool.URLs(), Transport: inj})
			if err != nil {
				t.Fatal(err)
			}
			return e
		})
	})
}
