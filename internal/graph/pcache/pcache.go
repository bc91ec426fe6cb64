// Package pcache is a buffer-pool-style page cache over a file: fixed
// PageSize pages read on demand through an io.ReaderAt, held in a
// bounded set of frames with CLOCK eviction. It is the storage engine
// under gstore's paged open (graphs bigger than RAM): the resident
// budget bounds how much of the adjacency ever lives in memory at once,
// and walk-shaped random access hits the pool instead of thrashing an
// mmap the kernel cannot be told the budget for.
//
// Concurrency model: a hit takes no lock, hashes nothing and writes no
// shared word. The page table is a dense slice of atomic frame pointers
// indexed by page number (the file's page count is known up front); a
// hit is a table load, a check that the frame is loaded and a check of
// its CLOCK reference bit. Reads are not pinned. A Cursor reads inside
// an epoch section instead: it registers in the pool's epoch once, on
// its first access, and stays there across hits until it misses (it
// leaves before the I/O) or is Released. Misses, the CLOCK ring and
// eviction live under one mutex, but I/O never does — a miss publishes
// a loading frame, pinned so it cannot be evicted (nothing else is
// ever pinned), and releases the lock before ReadAt; concurrent requests for
// the same page wait on the same frame's ready channel. The evictor
// claims an unpinned frame by swapping its pin count from 0 to -1 and
// parks the frame's buffer in the current epoch's limbo: a section
// opened before the frame left the table may still be reading it. The
// epoch advances, under the mutex, once no section of the previous
// epoch is open; only then is that epoch's limbo free for the next
// misses. When every frame is pinned (more loads in flight than frames)
// the pool admits overflow frames beyond the budget rather than
// deadlock; the overflow drains as the loads finish.
//
// Recycling evicted buffers is what keeps a pool under memory pressure
// from allocating a page per miss — hundreds of collections a second
// under a walk, and a resident set that follows the collector's timing
// instead of the budget. The limbo and the free list are capped;
// buffers past the cap go to the garbage collector, which is safe
// because a reader's slice keeps its buffer alive.
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
// never drift. 4 KiB: a walk step reads one 4-byte element, so a miss
// should move little more than the row it lands in, and a few-MiB
// budget holds a thousand frames.
const PageSize = 1 << 12

// minFrames is the resident floor: below this a pool cannot make
// progress under concurrent loads without constant overflow churn.
const minFrames = 8

// maxSpare caps each limbo list and the free list, in pages; an evicted
// buffer past it is left to the garbage collector. 128 pages are the
// 512 KiB the free list held when pages were 64 KiB.
const maxSpare = 128

// Stats is a point-in-time view of the pool's counters and gauges.
type Stats struct {
	// Hits and Misses count Cursor page requests (a cursor adds its hits
	// when it leaves its section); Evictions counts frames dropped by
	// capacity pressure; ReadBytes is what the misses read from the file.
	Hits, Misses, Evictions, ReadBytes uint64
	// PinnedPages and ResidentPages are current gauges: pages pinned by a
	// load in flight, and pages in the pool. BudgetPages is the configured
	// frame budget (ResidentPages may exceed it transiently while every
	// frame is loading).
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

	hits, misses, evictions, readBytes atomic.Uint64

	// table[page] is the page's resident frame or nil. Read without the
	// lock; written under mu.
	table []atomic.Pointer[frame]
	// resident mirrors len(clock) so unpin can see overflow without mu.
	resident atomic.Int64

	// epoch is written under mu; active[e&1] counts the open sections
	// that entered in epoch e.
	epoch  atomic.Uint64
	active [2]atomic.Int64

	mu    sync.Mutex
	clock []*frame // resident ring; hand sweeps for victims
	hand  int
	limbo [2][][]byte // evicted full-page buffers, by the parity of the epoch that evicted them
	free  [][]byte    // full-page buffers no section can reach
}

// frame is one resident page. data and err are written once, before
// loaded is set and ready closes, and are read-only afterwards.
type frame struct {
	page   int64
	pins   atomic.Int32 // the loader and the cursors waiting for it; -1 once the evictor has claimed the frame
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
// frames by walking the resident ring under the lock, so it is for
// scrapes, not for hot paths.
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
		ReadBytes:     p.readBytes.Load(),
		PinnedPages:   pinned,
		ResidentPages: resident,
		BudgetPages:   p.max,
		BudgetBytes:   p.budget,
	}
}

// fetch is the miss path, taken outside any section: it returns page's
// frame loaded and pinned, reading it from the file unless another
// cursor already is, and whether the frame was already there. The
// caller must unpin it.
func (p *Pool) fetch(page int64) (f *frame, found bool, err error) {
	p.mu.Lock()
	// A frame in the table under mu is unclaimed: claims and removals
	// happen in one critical section.
	if f = p.table[page].Load(); f == nil {
		f, err = p.load(page)
		return f, false, err
	}
	f.pins.Add(1)
	f.ref.Store(true)
	p.mu.Unlock()
	if !f.loaded.Load() {
		<-f.ready
		if f.err != nil {
			p.unpin(f)
			return nil, false, f.err
		}
	}
	return f, true, nil
}

// load is called with mu held and page absent from the table: it
// publishes a pinned loading frame, makes room, and reads the page with
// the lock released.
func (p *Pool) load(page int64) (*frame, error) {
	f := &frame{page: page, ready: make(chan struct{})}
	f.pins.Store(1)
	f.ref.Store(true)
	p.table[page].Store(f)
	p.clock = append(p.clock, f)
	p.resident.Store(int64(len(p.clock)))
	p.evictLocked()
	p.advanceLocked()
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
		// Drop the failed frame so a later fetch retries the read.
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
	p.readBytes.Add(uint64(n))
	f.data = buf
	f.loaded.Store(true)
	close(f.ready)
	return f, nil
}

// unpin lowers f's pin count.
func (p *Pool) unpin(f *frame) {
	// Drain overflow promptly: a hit-only workload would otherwise never
	// trigger the miss-path sweep.
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
// budget or every remaining frame is loading (overflow is tolerated —
// the alternative is deadlock under many concurrent loads).
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
					// Out of the table, so no section opened from now on
					// can reach the buffer; one opened before still may.
					if limbo := &p.limbo[p.epoch.Load()&1]; len(f.data) == PageSize && len(*limbo) < maxSpare {
						*limbo = append(*limbo, f.data)
					}
					p.evictions.Add(1)
					evicted = true
					break
				}
			}
			p.hand++
		}
		if !evicted {
			return // all loading; overflow stands until the loads finish
		}
	}
}

// advanceLocked moves the epoch from e to e+1 if no section of e-1 is
// open, and frees e-1's limbo: every section still open entered in e,
// after the frames evicted in e-1 had left the table.
func (p *Pool) advanceLocked() {
	e := p.epoch.Load()
	prev := (e + 1) & 1 // e-1's parity, and e+1's
	if p.active[prev].Load() != 0 {
		return
	}
	limbo := p.limbo[prev]
	for _, b := range limbo {
		if len(p.free) < maxSpare {
			p.free = append(p.free, b)
		}
	}
	clear(limbo)
	p.limbo[prev] = limbo[:0]
	p.epoch.Store(e + 1)
}

// A Cursor is one goroutine's handle on the pool. It reads inside an
// epoch section that it enters on its first access and leaves on its
// own miss or on Release; while it is open, no buffer the cursor viewed
// is handed to another page. Cursors are not safe for concurrent use;
// Release must be called when done.
type Cursor struct {
	p    *Pool
	f    *frame        // the frame viewed last; nil outside a section
	open *atomic.Int64 // the open section's active counter; nil outside one
	// hits are added to the pool's when the section closes; switches
	// stay the cursor's.
	hits, switches uint64
}

// NewCursor returns a fresh cursor, outside any section.
func (p *Pool) NewCursor() *Cursor { return &Cursor{p: p} }

// enter opens the cursor's section in the current epoch: the epoch is
// re-read after registering, so an advance in between is never missed.
func (c *Cursor) enter() {
	p := c.p
	for {
		e := p.epoch.Load()
		p.active[e&1].Add(1)
		if p.epoch.Load() == e {
			c.open = &p.active[e&1]
			return
		}
		p.active[e&1].Add(-1)
	}
}

// lookup is the hit path: page's frame if it is in the table and
// loaded, read inside the cursor's section.
func (c *Cursor) lookup(page int64) ([]byte, bool) {
	if c.open == nil {
		c.enter()
	}
	f := c.p.table[page].Load()
	if f == nil || !f.loaded.Load() {
		return nil, false
	}
	if !f.ref.Load() {
		f.ref.Store(true)
	}
	c.f = f
	c.hits++
	c.switches++
	return f.data, true
}

// View returns page's bytes, valid until the cursor moves to another
// page or is Released. The base address is 8-byte aligned, so callers
// may take element views at element-aligned offsets. The last page is
// short. A failed read leaves the cursor outside its section, holding
// no page.
func (c *Cursor) View(page int64) ([]byte, error) {
	if c.f != nil && c.f.page == page {
		return c.f.data, nil
	}
	if page < 0 || page >= c.p.NumPages() {
		return nil, fmt.Errorf("pcache: page %d out of range (file %d bytes)", page, c.p.size)
	}
	if b, ok := c.lookup(page); ok {
		return b, nil
	}
	c.Release() // a section never waits for the file
	f, found, err := c.p.fetch(page)
	if err != nil {
		return nil, err
	}
	c.enter()
	c.p.unpin(f) // the section keeps the buffer from here
	if found {
		c.hits++
	}
	c.f = f
	c.switches++
	return f.data, nil
}

// TryView is View for a page that is already in the pool: a resident,
// fully loaded frame (a counted hit), or false — absent, still loading,
// out of range — without blocking, reading or changing what the cursor
// holds.
func (c *Cursor) TryView(page int64) ([]byte, bool) {
	if c.f != nil && c.f.page == page {
		return c.f.data, true
	}
	if page < 0 || page >= c.p.NumPages() {
		return nil, false
	}
	return c.lookup(page)
}

// Switches counts the times the cursor changed the page it holds — the
// Views and TryViews that were not served from the page it already had.
func (c *Cursor) Switches() uint64 { return c.switches }

// Release closes the cursor's section, adding its hits to the pool's;
// the pages it viewed may be recycled from then on. The cursor stays
// usable.
func (c *Cursor) Release() {
	if c.open == nil {
		return
	}
	c.open.Add(-1)
	c.open, c.f = nil, nil
	if c.hits != 0 {
		c.p.hits.Add(c.hits)
		c.hits = 0
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
