// Package pcache is a buffer-pool-style page cache over a file: fixed
// PageSize pages read on demand through an io.ReaderAt, held in a
// bounded set of frames with pin counts and CLOCK eviction. It is the
// storage engine under gstore's paged open (graphs bigger than RAM):
// the resident budget bounds how much of the adjacency ever lives in
// memory at once, and walk-shaped random access hits the pool instead
// of thrashing an mmap the kernel cannot be told the budget for.
//
// Concurrency model: the page table and CLOCK state live under one
// mutex, but I/O never does — a miss inserts a loading frame (pinned,
// so it cannot be evicted) and releases the lock before ReadAt;
// concurrent requests for the same page pin the same frame and block
// on its ready channel. A frame with pins > 0 is never evicted. When
// every frame is pinned the pool admits overflow frames beyond the
// budget rather than deadlock; the overflow drains on the next misses
// once pins release.
//
// An evicted frame's buffer is the next miss's buffer (Pool.free): a
// pool under memory pressure misses on most page changes, and a fresh
// 64 KiB allocation per miss is gigabytes of garbage a second under a
// walk — hundreds of collections a second, and a resident set that
// follows the collector's timing instead of the budget.
package pcache

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PageSize is the pool's fixed page size. fwtool's per-section page
// counts use the same constant (pinned by a test), so the two can
// never drift. 64 KiB: big enough that one hot vertex's row rarely
// spans pages, small enough that a few-MiB budget still holds dozens
// of frames.
const PageSize = 1 << 16

// minFrames is the resident floor: below this a pool cannot make
// progress under concurrent pinning without constant overflow churn.
const minFrames = 8

// Stats is a point-in-time view of the pool's counters and gauges.
type Stats struct {
	// Hits and Misses count Cursor page requests; Evictions counts
	// frames dropped by capacity pressure.
	Hits, Misses, Evictions uint64
	// PinnedPages and ResidentPages are current gauges; BudgetPages is
	// the configured frame budget (ResidentPages may exceed it
	// transiently while every frame is pinned).
	PinnedPages, ResidentPages, BudgetPages int
	// BudgetBytes is the byte budget the pool was built with.
	BudgetBytes int64
}

// Pool is the page cache over one io.ReaderAt.
type Pool struct {
	src    io.ReaderAt
	size   int64 // file size; the last page may be short
	budget int64
	max    int // frame budget in pages

	hits, misses, evictions atomic.Uint64

	mu     sync.Mutex
	frames map[int64]*frame
	clock  []*frame // resident ring; hand sweeps for victims
	hand   int
	pinned int      // frames with pins > 0
	free   [][]byte // full-page buffers of evicted frames, at most minFrames
}

// frame is one resident page. pins, ref and the clock membership are
// guarded by the pool mutex; data and err are written once before
// ready closes and are read-only afterwards.
type frame struct {
	page  int64
	pins  int
	ref   bool
	data  []byte
	err   error
	ready chan struct{}
}

// New builds a pool over src (size bytes long) with a resident budget
// of budgetBytes, floored at a few pages so tiny budgets still make
// progress. src must support concurrent ReadAt (an *os.File does).
func New(src io.ReaderAt, size, budgetBytes int64) *Pool {
	max := int(budgetBytes / PageSize)
	if max < minFrames {
		max = minFrames
	}
	return &Pool{
		src:    src,
		size:   size,
		budget: budgetBytes,
		max:    max,
		frames: make(map[int64]*frame, max+1),
	}
}

// NumPages returns how many pages cover the pool's file.
func (p *Pool) NumPages() int64 { return (p.size + PageSize - 1) / PageSize }

// Stats returns the pool's counters and gauges.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	pinned, resident := p.pinned, len(p.clock)
	p.mu.Unlock()
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Evictions:     p.evictions.Load(),
		PinnedPages:   pinned,
		ResidentPages: resident,
		BudgetPages:   p.max,
		BudgetBytes:   p.budget,
	}
}

// pin returns page's frame with its pin count raised, loading it on a
// miss. The caller must unpin it.
func (p *Pool) pin(page int64) (*frame, error) {
	if page < 0 || page*PageSize >= p.size {
		return nil, fmt.Errorf("pcache: page %d out of range (file %d bytes)", page, p.size)
	}
	p.mu.Lock()
	if f, ok := p.frames[page]; ok {
		if f.pins == 0 {
			p.pinned++
		}
		f.pins++
		f.ref = true
		p.mu.Unlock()
		<-f.ready
		if f.err != nil {
			p.unpin(f)
			return nil, f.err
		}
		p.hits.Add(1)
		return f, nil
	}
	f := &frame{page: page, pins: 1, ref: true, ready: make(chan struct{})}
	p.frames[page] = f
	p.clock = append(p.clock, f)
	p.pinned++
	p.evictLocked()
	n := PageSize
	if rest := p.size - page*PageSize; rest < int64(n) {
		n = int(rest)
	}
	var buf []byte
	if last := len(p.free) - 1; last >= 0 && n == PageSize {
		buf, p.free = p.free[last], p.free[:last]
	}
	p.mu.Unlock()

	p.misses.Add(1)
	if buf == nil {
		buf = alignedBytes(n)
	}
	_, err := io.ReadFull(io.NewSectionReader(p.src, page*PageSize, int64(n)), buf)
	if err != nil {
		f.err = fmt.Errorf("pcache: reading page %d: %w", page, err)
	} else {
		f.data = buf
	}
	close(f.ready)
	if f.err != nil {
		// Drop the failed frame so a later pin retries the read.
		p.mu.Lock()
		p.dropLocked(f)
		p.unpinLocked(f)
		p.mu.Unlock()
		return nil, f.err
	}
	return f, nil
}

// unpin lowers f's pin count.
func (p *Pool) unpin(f *frame) {
	p.mu.Lock()
	p.unpinLocked(f)
	p.mu.Unlock()
}

func (p *Pool) unpinLocked(f *frame) {
	f.pins--
	if f.pins == 0 {
		p.pinned--
		// Drain pin-overflow promptly: a hit-only workload would
		// otherwise never trigger the miss-path sweep.
		if len(p.clock) > p.max {
			p.evictLocked()
		}
	}
}

// dropLocked removes f from the page table and the clock ring.
func (p *Pool) dropLocked(f *frame) {
	delete(p.frames, f.page)
	for i, c := range p.clock {
		if c == f {
			last := len(p.clock) - 1
			p.clock[i] = p.clock[last]
			p.clock = p.clock[:last]
			if p.hand > i {
				p.hand--
			}
			if p.hand >= len(p.clock) {
				p.hand = 0
			}
			return
		}
	}
}

// evictLocked runs the CLOCK sweep until the ring is back within
// budget or every remaining frame is pinned (overflow is tolerated —
// the alternative is deadlock under heavy concurrent pinning).
func (p *Pool) evictLocked() {
	for len(p.clock) > p.max {
		evicted := false
		// Two sweeps: the first clears reference bits, the second takes
		// the first unreferenced unpinned frame.
		for sweep := 0; sweep < 2*len(p.clock); sweep++ {
			if p.hand >= len(p.clock) {
				p.hand = 0
			}
			f := p.clock[p.hand]
			if f.pins == 0 {
				if f.ref {
					f.ref = false
				} else {
					p.dropLocked(f)
					// Unpinned, so no cursor still views the buffer.
					if len(f.data) == PageSize && len(p.free) < minFrames {
						p.free = append(p.free, f.data)
					}
					p.evictions.Add(1)
					evicted = true
					break
				}
			}
			p.hand++
		}
		if !evicted {
			return // all pinned; overflow stands until pins release
		}
	}
}

// A Cursor is one goroutine's handle on the pool: it keeps its current
// page pinned across View calls, so a run of accesses to one page pins
// and unpins once. Cursors are not safe for concurrent use; Release
// must be called when done.
type Cursor struct {
	p *Pool
	f *frame
}

// NewCursor returns a fresh unpinned cursor.
func (p *Pool) NewCursor() *Cursor { return &Cursor{p: p} }

// View returns page's bytes, pinned until the next View or Release.
// The base address is 8-byte aligned, so callers may take element
// views at element-aligned offsets. The last page is short.
func (c *Cursor) View(page int64) ([]byte, error) {
	if c.f != nil {
		if c.f.page == page {
			return c.f.data, nil
		}
		c.p.unpin(c.f)
		c.f = nil
	}
	f, err := c.p.pin(page)
	if err != nil {
		return nil, err
	}
	c.f = f
	return f.data, nil
}

// Release unpins the cursor's current page. The cursor stays usable.
func (c *Cursor) Release() {
	if c.f != nil {
		c.p.unpin(c.f)
		c.f = nil
	}
}

// alignedBytes returns an n-byte slice with an 8-byte-aligned base (it
// views a []uint64), so element views into pages never misalign.
func alignedBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// ParseBytes parses a human byte size: a plain integer (bytes) or one
// with a K/M/G or KiB/MiB/GiB suffix (binary units either way). It is
// the parser behind the CLIs' -graph-mem and -target-bytes flags.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			t = t[:len(t)-len(u.suffix)]
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("pcache: bad byte size %q (want e.g. 512MiB, 2G, 1048576)", s)
	}
	if mult > 1 && v > (1<<62)/mult {
		return 0, fmt.Errorf("pcache: byte size %q overflows", s)
	}
	return v * mult, nil
}
