package obs

import (
	"sync"
	"time"

	"repro/internal/hist"
)

// Latency records duration samples into an internal/hist log-linear
// histogram behind a mutex. The lock is held only for the integer
// bucket increment, so the recorder stays cheap under concurrency;
// scrapers take a deep Snapshot and render off-lock.
type Latency struct {
	mu sync.Mutex
	h  hist.Histogram
}

// Observe records one duration sample.
func (l *Latency) Observe(d time.Duration) {
	l.mu.Lock()
	l.h.Record(d)
	l.mu.Unlock()
}

// Snapshot returns a consistent deep copy of the underlying histogram.
func (l *Latency) Snapshot() *hist.Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Snapshot()
}
