package ctrlplane

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Term is one leadership grant from an election store: Leader may act
// as the cluster's coordinator for epoch Epoch until Expires, absent a
// renewal. Epochs are strictly monotonic — every change of leadership
// (including the same node regaining a lapsed term) bumps the epoch,
// which is what lets agents fence a deposed leader's traffic by number
// comparison alone.
type Term struct {
	Epoch   uint64    `json:"epoch"`
	Leader  string    `json:"leader"`
	Expires time.Time `json:"expires"`
}

// equal reports whether two terms name the same grant. Plain struct
// comparison is a trap here: time.Time's == also compares the
// monotonic-clock reading and location pointer, so a term that has
// been through a JSON or wire round trip (which strips both) would
// spuriously differ from its in-memory twin. Compare the instant.
func (t Term) equal(o Term) bool {
	return t.Epoch == o.Epoch && t.Leader == o.Leader && t.Expires.Equal(o.Expires)
}

// Election is the leader-election substrate: a lease on a shared
// store. Campaign is the only operation a coordinator needs — it
// acquires, renews, or learns the current term in one call, so there
// is no separate watch path to race with.
//
// Expiry is judged with the caller's clock (the `now` argument), which
// is how real deployments behave — each participant reads the shared
// state and applies its own clock — and what lets the chaos suite
// inject clock skew per coordinator. The safety argument does not rest
// on clocks anyway: it rests on agents refusing epochs older than the
// newest they have applied.
type Election interface {
	// Campaign attempts to acquire or renew leadership for candidate
	// id as of now, with term length ttl:
	//   - id holds the current term and it is unexpired → renewed
	//     (same epoch, expiry extended);
	//   - no term yet, or the current term is expired → a new term
	//     with epoch+1 and id as leader;
	//   - another candidate holds an unexpired term → no change.
	// The returned Term is the store's term after the call; the caller
	// leads iff Term.Leader == id.
	Campaign(id string, now time.Time, ttl time.Duration) (Term, error)
	// Resign expires id's term immediately (keeping the epoch, so the
	// next campaigner still bumps it). A no-op when id does not hold
	// the term.
	Resign(id string) error
}

// campaignDecide is the shared acquire/renew/observe rule both stores
// apply under their respective locks.
func campaignDecide(cur Term, id string, now time.Time, ttl time.Duration) Term {
	switch {
	case cur.Leader == id && now.Before(cur.Expires):
		cur.Expires = now.Add(ttl)
	case cur.Epoch == 0 || !now.Before(cur.Expires):
		cur = Term{Epoch: cur.Epoch + 1, Leader: id, Expires: now.Add(ttl)}
	}
	return cur
}

func validCampaign(id string, ttl time.Duration) error {
	if id == "" {
		return fmt.Errorf("ctrlplane: campaign with empty candidate id")
	}
	if ttl <= 0 {
		return fmt.Errorf("ctrlplane: campaign ttl %v", ttl)
	}
	return nil
}

// MemElection is an in-process election store: a mutex-guarded term
// shared by every coordinator holding the same pointer. It backs the
// chaos suite and single-process multi-coordinator setups (the ha-pair
// drill runs two coordinators over one MemElection).
type MemElection struct {
	mu   sync.Mutex
	term Term
}

// NewMemElection builds an empty in-process election store.
func NewMemElection() *MemElection { return &MemElection{} }

// Campaign implements Election.
func (e *MemElection) Campaign(id string, now time.Time, ttl time.Duration) (Term, error) {
	if err := validCampaign(id, ttl); err != nil {
		return Term{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.term = campaignDecide(e.term, id, now, ttl)
	return e.term, nil
}

// Resign implements Election.
func (e *MemElection) Resign(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.term.Leader == id {
		e.term.Expires = time.Time{}
	}
	return nil
}

// Term returns the store's current term (tests inspect it).
func (e *MemElection) Term() Term {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.term
}

// FileElection is a lease on a shared filesystem: the term lives in a
// JSON state file, updates are serialized by an O_EXCL lock file and
// landed with an atomic rename. It is the zero-dependency shared store
// for pscoord -ha-store — two or three coordinators pointing at the
// same path (local disk for colocated processes, a shared mount
// otherwise) elect exactly one leader. Not suitable for stores on
// filesystems without POSIX rename atomicity.
type FileElection struct {
	path string

	// mu serializes this process's campaigns (the lock file serializes
	// cross-process ones) and guards token, this handle's claim on the
	// lock file while held.
	mu    sync.Mutex
	token string
}

// NewFileElection builds a file-backed election store at path. The
// parent directory must exist; the state file is created on the first
// campaign.
func NewFileElection(path string) (*FileElection, error) {
	if path == "" {
		return nil, fmt.Errorf("ctrlplane: file election needs a path")
	}
	dir := filepath.Dir(path)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("ctrlplane: file election directory %s: %v", dir, err)
	}
	return &FileElection{path: path}, nil
}

// lockRetries × lockBackoff bounds how long a campaign waits on a
// contended lock file before erroring; a campaign that cannot decide
// is treated by the HA layer as "not leader", which is always safe.
const (
	lockRetries = 50
	lockBackoff = 2 * time.Millisecond
)

// staleLockAge is the orphan threshold: the full retry budget. A live
// writer holds the lock for the few syscalls of one read-decide-write,
// so a lock this old belongs to a process that crashed mid-campaign.
const staleLockAge = lockRetries * lockBackoff

// lockSeq makes lock tokens unique within this process.
var lockSeq atomic.Uint64

// withLock runs fn while holding the store's lock file. A lock whose
// mtime exceeds the whole retry budget is orphaned — its holder
// crashed mid-campaign — and is stolen instead of bricking the store
// forever. Stealing is heuristic (a holder stalled past the budget
// could be robbed), so the lock file carries a per-acquisition token
// and write re-checks it immediately before landing: a robbed holder
// aborts its campaign rather than clobbering the thief's.
func (e *FileElection) withLock(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	lock := e.path + ".lock"
	token := fmt.Sprintf("%d-%d", os.Getpid(), lockSeq.Add(1))
	acquired := false
	for i := 0; i < lockRetries; i++ {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			_, werr := f.WriteString(token)
			f.Close()
			if werr != nil {
				os.Remove(lock)
				return fmt.Errorf("ctrlplane: election lock: %w", werr)
			}
			acquired = true
			break
		}
		if !os.IsExist(err) {
			return fmt.Errorf("ctrlplane: election lock: %w", err)
		}
		if st, serr := os.Stat(lock); serr == nil && time.Since(st.ModTime()) > staleLockAge {
			// Losing the remove race to another stealer just means the
			// next O_EXCL attempt waits behind it, like any contention.
			_ = os.Remove(lock)
			continue
		}
		time.Sleep(lockBackoff)
	}
	if !acquired {
		return fmt.Errorf("ctrlplane: election lock %s contended for over %v (a live writer holds it; orphans are stolen after %v)",
			lock, time.Duration(lockRetries)*lockBackoff, staleLockAge)
	}
	e.token = token
	defer func() {
		e.token = ""
		// Unlock only if the lock is still ours: after a steal it
		// belongs to the thief, and removing it would cascade.
		if data, err := os.ReadFile(lock); err == nil && string(data) == token {
			os.Remove(lock)
		}
	}()
	return fn()
}

// read loads the current term (zero Term when the store is empty).
func (e *FileElection) read() (Term, error) {
	data, err := os.ReadFile(e.path)
	if os.IsNotExist(err) {
		return Term{}, nil
	}
	if err != nil {
		return Term{}, fmt.Errorf("ctrlplane: election state: %w", err)
	}
	var t Term
	if err := json.Unmarshal(data, &t); err != nil {
		return Term{}, fmt.Errorf("ctrlplane: election state %s corrupt: %w", e.path, err)
	}
	return t, nil
}

// write lands a term atomically (temp file + rename).
func (e *FileElection) write(t Term) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp.%d", e.path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("ctrlplane: election state: %w", err)
	}
	if e.token != "" {
		// Landing a term decided under a stolen lock would clobber the
		// thief's campaign; verify ownership right before the rename.
		if held, err := os.ReadFile(e.path + ".lock"); err != nil || string(held) != e.token {
			os.Remove(tmp)
			return fmt.Errorf("ctrlplane: election lock stolen mid-campaign (stalled past %v); campaign aborted", staleLockAge)
		}
	}
	if err := os.Rename(tmp, e.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ctrlplane: election state: %w", err)
	}
	return nil
}

// Campaign implements Election.
func (e *FileElection) Campaign(id string, now time.Time, ttl time.Duration) (Term, error) {
	if err := validCampaign(id, ttl); err != nil {
		return Term{}, err
	}
	var out Term
	err := e.withLock(func() error {
		cur, err := e.read()
		if err != nil {
			return err
		}
		next := campaignDecide(cur, id, now, ttl)
		if !next.equal(cur) {
			if err := e.write(next); err != nil {
				return err
			}
		}
		out = next
		return nil
	})
	return out, err
}

// Resign implements Election.
func (e *FileElection) Resign(id string) error {
	return e.withLock(func() error {
		cur, err := e.read()
		if err != nil {
			return err
		}
		if cur.Leader != id {
			return nil
		}
		cur.Expires = time.Time{}
		return e.write(cur)
	})
}
