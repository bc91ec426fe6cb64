package serve

import (
	"sync"
	"sync/atomic"
)

// Store publishes Snapshots to readers. Reads are a single atomic
// pointer load — no locks on the query path — and writes swap the whole
// snapshot at once, so a reader can never observe a half-updated
// estimate.
type Store struct {
	mu    sync.Mutex // serializes Publish so epochs and cur agree
	cur   atomic.Pointer[Snapshot]
	epoch atomic.Uint64
}

// NewStore returns an empty store; Current is nil until the first
// Publish.
func NewStore() *Store { return &Store{} }

// Publish assigns s the next epoch and makes it the current snapshot.
// Publishes are serialized (they are rare; reads stay lock-free), so
// concurrent publishers can never leave Current holding an older epoch
// than the store has handed out, and the epoch write always
// happens-before the pointer store. The top index's /v1/topk bodies are
// rendered here, once the epoch they carry is known. Returns s for
// chaining.
func (st *Store) Publish(s *Snapshot) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	s.Epoch = st.epoch.Add(1)
	s.render()
	st.cur.Store(s)
	return s
}

// Restore publishes a previously persisted snapshot, preserving the
// epoch it carried when it was saved (so warm-start responses are
// honest about which estimate they serve) and fast-forwarding the
// store's epoch counter past it, so the next fresh Publish gets a
// strictly newer epoch. A zero-epoch snapshot (persisted before its
// first publish) is assigned the next epoch like a normal publish. Its
// bodies are rendered as Publish renders them.
func (st *Store) Restore(s *Snapshot) *Snapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.Epoch == 0 {
		s.Epoch = st.epoch.Add(1)
	} else if cur := st.epoch.Load(); s.Epoch > cur {
		st.epoch.Store(s.Epoch)
	}
	s.render()
	st.cur.Store(s)
	return s
}

// Current returns the latest published snapshot, or nil if none has
// been published yet. The returned snapshot is immutable; callers keep
// a consistent view for as long as they hold the pointer, even across
// concurrent swaps.
func (st *Store) Current() *Snapshot { return st.cur.Load() }
