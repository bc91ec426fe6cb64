// Package pcache is a buffer-pool-style page cache over a file: fixed
// PageSize pages read on demand through an io.ReaderAt, held in a
// bounded set of frames with pin counts and CLOCK eviction. It is the
// storage engine under gstore's paged open (graphs bigger than RAM):
// the resident budget bounds how much of the adjacency ever lives in
// memory at once, and walk-shaped random access hits the pool instead
// of thrashing an mmap the kernel cannot be told the budget for.
//
// Concurrency model: a hit takes no lock and hashes nothing. The page
// table is a dense slice of atomic frame pointers indexed by page number
// (the file's page count is known up front), and a frame's pin count is
// an atomic counter: a reader loads the pointer and raises the count
// with a compare-and-swap from a non-negative value. Misses, the CLOCK
// ring and eviction live under one mutex, but I/O never does — a miss
// publishes a loading frame (pinned, so it cannot be evicted) and
// releases the lock before ReadAt; concurrent requests for the same page
// pin the same frame and block on its ready channel. The evictor takes a
// frame by swapping its pin count from 0 to -1: a claimed frame can
// never be pinned again (a reader that still holds its pointer fails the
// compare-and-swap and takes the miss path), so its buffer is safe to
// hand to the next miss. When every frame is pinned the pool admits
// overflow frames beyond the budget rather than deadlock; the overflow
// drains once pins release.
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

	// table[page] is the page's resident frame or nil. Read without the
	// lock; written under mu.
	table []atomic.Pointer[frame]
	// resident mirrors len(clock) so unpin can see overflow without mu.
	resident atomic.Int64

	mu    sync.Mutex
	clock []*frame // resident ring; hand sweeps for victims
	hand  int
	free  [][]byte // full-page buffers of evicted frames, at most minFrames
}

// frame is one resident page. data and err are written once, before
// loaded is set and ready closes, and are read-only afterwards.
type frame struct {
	page   int64
	pins   atomic.Int32 // cursors viewing the frame; -1 once the evictor has claimed it
	ref    atomic.Bool  // CLOCK reference bit
	loaded atomic.Bool  // data is readable
	data   []byte
	err    error
	ready  chan struct{}
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
		table:  make([]atomic.Pointer[frame], (size+PageSize-1)/PageSize),
	}
}

// NumPages returns how many pages cover the pool's file.
func (p *Pool) NumPages() int64 { return int64(len(p.table)) }

// Stats returns the pool's counters and gauges. It counts the pinned
// frames by walking the resident ring under the lock — the price of a
// hit path that keeps no shared pin gauge — so it is for scrapes, not
// for hot paths.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	pinned := 0
	for _, f := range p.clock {
		if f.pins.Load() > 0 {
			pinned++
		}
	}
	resident := len(p.clock)
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

// tryPin pins page's frame if it is resident and not claimed by the
// evictor. No lock, no I/O; the frame may still be loading.
func (p *Pool) tryPin(page int64) *frame {
	f := p.table[page].Load()
	if f == nil {
		return nil
	}
	for {
		n := f.pins.Load()
		if n < 0 {
			return nil
		}
		if f.pins.CompareAndSwap(n, n+1) {
			if !f.ref.Load() {
				f.ref.Store(true)
			}
			return f
		}
	}
}

// pin returns page's frame, loaded, with its pin count raised, reading
// it from the file on a miss. The caller must unpin it.
func (p *Pool) pin(page int64) (*frame, error) {
	f := p.tryPin(page)
	if f == nil {
		p.mu.Lock()
		// A frame in the table under mu is unclaimed: claims and removals
		// happen in one critical section.
		if f = p.table[page].Load(); f == nil {
			return p.load(page)
		}
		f.pins.Add(1)
		f.ref.Store(true)
		p.mu.Unlock()
	}
	if !f.loaded.Load() {
		<-f.ready
		if f.err != nil {
			p.unpin(f)
			return nil, f.err
		}
	}
	p.hits.Add(1)
	return f, nil
}

// load is the miss path: called with mu held and page absent from the
// table, it publishes a pinned loading frame, makes room, and reads the
// page with the lock released.
func (p *Pool) load(page int64) (*frame, error) {
	f := &frame{page: page, ready: make(chan struct{})}
	f.pins.Store(1)
	f.ref.Store(true)
	p.table[page].Store(f)
	p.clock = append(p.clock, f)
	p.resident.Store(int64(len(p.clock)))
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
	if _, err := io.ReadFull(io.NewSectionReader(p.src, page*PageSize, int64(n)), buf); err != nil {
		f.err = fmt.Errorf("pcache: reading page %d: %w", page, err)
		close(f.ready)
		// Drop the failed frame so a later pin retries the read.
		p.mu.Lock()
		for i, c := range p.clock {
			if c == f {
				p.removeLocked(i)
				break
			}
		}
		p.mu.Unlock()
		p.unpin(f)
		return nil, f.err
	}
	f.data = buf
	f.loaded.Store(true)
	close(f.ready)
	return f, nil
}

// unpin lowers f's pin count.
func (p *Pool) unpin(f *frame) {
	// Drain pin-overflow promptly: a hit-only workload would otherwise
	// never trigger the miss-path sweep.
	if f.pins.Add(-1) == 0 && p.resident.Load() > int64(p.max) {
		p.mu.Lock()
		p.evictLocked()
		p.mu.Unlock()
	}
}

// removeLocked takes clock[i] out of the ring and the page table.
func (p *Pool) removeLocked(i int) {
	p.table[p.clock[i].page].Store(nil)
	last := len(p.clock) - 1
	p.clock[i] = p.clock[last]
	p.clock[last] = nil
	p.clock = p.clock[:last]
	p.resident.Store(int64(last))
	if p.hand > i {
		p.hand--
	}
	if p.hand >= last {
		p.hand = 0
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
			if f.pins.Load() == 0 {
				if f.ref.Load() {
					f.ref.Store(false)
				} else if f.pins.CompareAndSwap(0, -1) {
					p.removeLocked(p.hand)
					// Claimed, so no cursor views the buffer or ever will.
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
	p        *Pool
	f        *frame
	switches uint64
}

// NewCursor returns a fresh unpinned cursor.
func (p *Pool) NewCursor() *Cursor { return &Cursor{p: p} }

// hold makes f the cursor's pinned page.
func (c *Cursor) hold(f *frame) []byte {
	if c.f != nil {
		c.p.unpin(c.f)
	}
	c.f = f
	c.switches++
	return f.data
}

// View returns page's bytes, pinned until the cursor moves to another
// page or is Released. The base address is 8-byte aligned, so callers
// may take element views at element-aligned offsets. The last page is
// short. A failed read leaves the cursor unpinned.
func (c *Cursor) View(page int64) ([]byte, error) {
	if c.f != nil && c.f.page == page {
		return c.f.data, nil
	}
	if page < 0 || page >= c.p.NumPages() {
		return nil, fmt.Errorf("pcache: page %d out of range (file %d bytes)", page, c.p.size)
	}
	c.Release()
	f, err := c.p.pin(page)
	if err != nil {
		return nil, err
	}
	return c.hold(f), nil
}

// TryView is View for a page that is already in the pool: it pins a
// resident, fully loaded frame (a counted hit) or reports false —
// absent, still loading, being evicted, out of range — without
// blocking, reading or changing what the cursor holds.
func (c *Cursor) TryView(page int64) ([]byte, bool) {
	if c.f != nil && c.f.page == page {
		return c.f.data, true
	}
	if page < 0 || page >= c.p.NumPages() {
		return nil, false
	}
	f := c.p.tryPin(page)
	if f == nil {
		return nil, false
	}
	if !f.loaded.Load() {
		c.p.unpin(f)
		return nil, false
	}
	c.p.hits.Add(1)
	return c.hold(f), true
}

// Switches counts the times the cursor changed the page it holds — the
// Views and TryViews that were not served from the page already pinned.
func (c *Cursor) Switches() uint64 { return c.switches }

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
