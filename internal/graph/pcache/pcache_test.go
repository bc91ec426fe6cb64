package pcache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// testFile returns size bytes where byte i == byte(i*7 + i>>8), plus a
// ReaderAt over them.
func testFile(size int64) ([]byte, io.ReaderAt) {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	return data, bytes.NewReader(data)
}

func TestViewContentAndShortLastPage(t *testing.T) {
	size := int64(2*PageSize + 100)
	data, src := testFile(size)
	p := New(src, size, 1<<20)
	c := p.NewCursor()
	defer c.Release()
	for page := int64(0); page < p.NumPages(); page++ {
		got, err := c.View(page)
		if err != nil {
			t.Fatalf("View(%d): %v", page, err)
		}
		lo := page * PageSize
		hi := lo + PageSize
		if hi > size {
			hi = size
		}
		if !bytes.Equal(got, data[lo:hi]) {
			t.Fatalf("page %d content mismatch (len %d want %d)", page, len(got), hi-lo)
		}
	}
	if n := p.NumPages(); n != 3 {
		t.Fatalf("NumPages = %d, want 3", n)
	}
	// Out of range on either side is an error from View and a plain
	// "not there" from TryView — including page numbers whose byte offset
	// overflows int64 (page·PageSize wraps to 0 at 2^48 and to a small
	// in-range offset just above it, which must not read as page 0 or 1).
	held, _ := c.View(1)
	for _, page := range []int64{3, -1, 1 << 47, 1 << 48, 1<<48 + 1, math.MaxInt64, math.MinInt64} {
		if b, err := c.View(page); err == nil {
			t.Fatalf("View(%d) succeeded with %d bytes", page, len(b))
		}
		if b, ok := c.TryView(page); ok {
			t.Fatalf("TryView(%d) succeeded with %d bytes", page, len(b))
		}
	}
	// A refused page does not cost the cursor the page it holds.
	if b, ok := c.TryView(1); !ok || &b[0] != &held[0] {
		t.Fatal("the cursor lost its page to an out-of-range request")
	}
	if s := p.Stats(); s.Misses != 3 || s.ResidentPages != 3 {
		t.Fatalf("out-of-range requests reached the file: %d misses, %d resident, want 3 and 3", s.Misses, s.ResidentPages)
	}
}

func TestTryViewNeverLoads(t *testing.T) {
	size := int64(4 * PageSize)
	data, src := testFile(size)
	p := New(src, size, 1<<20)
	c := p.NewCursor()
	defer c.Release()
	if _, ok := c.TryView(2); ok {
		t.Fatal("TryView of a page nobody loaded succeeded")
	}
	if s := p.Stats(); s.Hits+s.Misses != 0 || s.ResidentPages != 0 || s.PinnedPages != 0 {
		t.Fatalf("a refused TryView left a trace: %+v", s)
	}
	if _, err := c.View(2); err != nil {
		t.Fatal(err)
	}
	// Resident now: another cursor's TryView finds it, as a counted hit;
	// a repeat on the page a cursor holds is free.
	c2 := p.NewCursor()
	for range 3 {
		b, ok := c2.TryView(2)
		if !ok || !bytes.Equal(b, data[2*PageSize:3*PageSize]) {
			t.Fatal("TryView of a resident page failed or shows the wrong bytes")
		}
	}
	// A miss does not cost the cursor the page it holds.
	if _, ok := c2.TryView(3); ok {
		t.Fatal("TryView(3) succeeded")
	}
	// Hits reach the pool when the cursor leaves its section; reading
	// pins nothing.
	c2.Release()
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 || s.PinnedPages != 0 || c2.Switches() != 1 {
		t.Fatalf("hits/misses/pinned = %d/%d/%d, %d switches; want 1/1/0 and 1", s.Hits, s.Misses, s.PinnedPages, c2.Switches())
	}
}

func TestHitMissCounting(t *testing.T) {
	size := int64(4 * PageSize)
	_, src := testFile(size)
	p := New(src, size, 1<<20)
	c := p.NewCursor()
	defer c.Release()

	// First touch of each page: miss. Same-page View: free (no
	// recount). Re-touch through a second cursor: hit.
	for page := int64(0); page < 4; page++ {
		c.View(page)
		c.View(page)
	}
	c2 := p.NewCursor()
	for page := int64(3); page >= 0; page-- {
		c2.View(page)
	}
	// A cursor counts its hits and adds them when it leaves its section.
	if s := p.Stats(); s.Hits != 0 {
		t.Fatalf("hits = %d before any cursor left its section, want 0", s.Hits)
	}
	c2.Release()
	s := p.Stats()
	if s.Misses != 4 || s.Hits != 4 {
		t.Fatalf("hits/misses = %d/%d, want 4/4", s.Hits, s.Misses)
	}
	if s.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", s.Evictions)
	}
	if s.ResidentPages != 4 {
		t.Fatalf("resident = %d, want 4", s.ResidentPages)
	}
	if s.PinnedPages != 0 {
		t.Fatalf("pinned = %d, want 0 (only a load in flight pins)", s.PinnedPages)
	}
}

func TestEvictionBoundsResidency(t *testing.T) {
	// Budget of exactly minFrames pages over a much larger file; sweep
	// it several times and confirm residency never exceeds the budget
	// (single cursor: at most one load in flight).
	pages := int64(4 * minFrames)
	size := pages * PageSize
	_, src := testFile(size)
	p := New(src, size, minFrames*PageSize)
	c := p.NewCursor()
	defer c.Release()
	for sweep := 0; sweep < 3; sweep++ {
		for page := int64(0); page < pages; page++ {
			if _, err := c.View(page); err != nil {
				t.Fatal(err)
			}
			if s := p.Stats(); s.ResidentPages > s.BudgetPages {
				t.Fatalf("resident %d exceeds budget %d", s.ResidentPages, s.BudgetPages)
			}
		}
	}
	s := p.Stats()
	if s.BudgetPages != minFrames {
		t.Fatalf("budget = %d pages, want %d", s.BudgetPages, minFrames)
	}
	if s.Evictions == 0 {
		t.Fatal("sweeping 4x the budget evicted nothing")
	}
	if s.Misses <= uint64(pages) {
		t.Fatalf("misses = %d; re-sweeps over an evicting pool should re-miss", s.Misses)
	}
}

func TestEvictedBufferServesNextMiss(t *testing.T) {
	// A pool sweeping a file four times its budget misses on every
	// View. Each miss must read into a buffer an earlier eviction freed
	// — not a fresh page — and still show the right bytes.
	pages := int64(4 * minFrames)
	size := pages * PageSize
	data, src := testFile(size)
	p := New(src, size, minFrames*PageSize)
	c := p.NewCursor()
	defer c.Release()
	page := int64(0)
	sweep := func() {
		for i := int64(0); i < pages; i++ {
			page = (page + 1) % pages
			got, err := c.View(page)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[page*PageSize:(page+1)*PageSize]) {
				t.Fatalf("page %d shows another page's bytes", page)
			}
		}
	}
	sweep() // fill the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / uint64(pages); perMiss >= PageSize/8 {
		t.Fatalf("a steady-state miss allocates %d bytes; the evicted frame's buffer should be reused", perMiss)
	}
}

func TestManyCursorsStayInBudget(t *testing.T) {
	// Twice as many cursors as frames, each on its own page: no read
	// pins a frame, so residency stays within the budget throughout,
	// and every cursor's bytes survive the evictions the others cause.
	pages := int64(2 * minFrames)
	size := pages * PageSize
	data, src := testFile(size)
	p := New(src, size, 1) // floored at minFrames
	cursors := make([]*Cursor, pages)
	views := make([][]byte, pages)
	for i := range cursors {
		cursors[i] = p.NewCursor()
		b, err := cursors[i].View(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		views[i] = b
		if s := p.Stats(); s.ResidentPages > s.BudgetPages || s.PinnedPages != 0 {
			t.Fatalf("cursor %d: %d resident of %d, %d pinned", i, s.ResidentPages, s.BudgetPages, s.PinnedPages)
		}
	}
	for i, b := range views {
		if !bytes.Equal(b, data[int64(i)*PageSize:int64(i+1)*PageSize]) {
			t.Fatalf("cursor %d's page changed under it", i)
		}
	}
	if s := p.Stats(); s.Evictions == 0 {
		t.Fatal("sixteen pages through eight frames evicted nothing")
	}
	for _, c := range cursors {
		c.Release()
	}
	if s := p.Stats(); s.ResidentPages > s.BudgetPages {
		t.Fatalf("resident %d over budget %d after release", s.ResidentPages, s.BudgetPages)
	}
}

// gateReader holds every read until release is closed, counting the
// reads in flight.
type gateReader struct {
	src      io.ReaderAt
	inFlight atomic.Int32
	release  chan struct{}
}

func (g *gateReader) ReadAt(p []byte, off int64) (int, error) {
	g.inFlight.Add(1)
	<-g.release
	return g.src.ReadAt(p, off)
}

func TestLoadsOverflowThenDrain(t *testing.T) {
	// More loads in flight than frames: a loading frame is pinned, so
	// the pool admits overflow frames rather than deadlock, and drains
	// back into its budget as the loads finish.
	pages := int64(2 * minFrames)
	size := pages * PageSize
	data, src := testFile(size)
	g := &gateReader{src: src, release: make(chan struct{})}
	p := New(g, size, 1) // floored at minFrames
	var wg sync.WaitGroup
	errs := make(chan error, pages)
	for i := int64(0); i < pages; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := p.NewCursor()
			defer c.Release()
			b, err := c.View(i)
			if err == nil && !bytes.Equal(b, data[i*PageSize:(i+1)*PageSize]) {
				err = fmt.Errorf("page %d shows another page's bytes", i)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	for g.inFlight.Load() < int32(pages) {
		runtime.Gosched()
	}
	if s := p.Stats(); s.PinnedPages != int(pages) || s.ResidentPages != int(pages) {
		t.Errorf("%d loads in flight: %d pinned, %d resident", pages, s.PinnedPages, s.ResidentPages)
	}
	close(g.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.PinnedPages != 0 || s.ResidentPages > s.BudgetPages {
		t.Fatalf("after the loads: %d pinned, %d resident of %d", s.PinnedPages, s.ResidentPages, s.BudgetPages)
	}
}

// TestHeldPageSurvivesEvictions: a page a cursor views keeps its bytes
// while another cursor evicts it and sweeps the pool many times over —
// its buffer waits in limbo instead of serving the next miss — and
// once the cursor releases, the parked buffers come back: misses
// allocate no page again.
func TestHeldPageSurvivesEvictions(t *testing.T) {
	pages := int64(4 * minFrames)
	size := pages * PageSize
	data, src := testFile(size)
	p := New(src, size, minFrames*PageSize)
	a, b := p.NewCursor(), p.NewCursor()
	defer b.Release()
	held, err := a.View(0)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for page := int64(1); page < pages; page++ {
			got, err := b.View(page)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[page*PageSize:(page+1)*PageSize]) {
				t.Fatalf("page %d shows another page's bytes", page)
			}
		}
	}
	for range 4 {
		sweep()
	}
	if a.f.pins.Load() != -1 {
		t.Fatal("the held page was never evicted: the test exercised nothing")
	}
	if !bytes.Equal(held, data[:PageSize]) {
		t.Fatal("an evicted page's buffer was reused while a cursor still viewed it")
	}

	a.Release()
	sweep() // the epoch moves on and the parked buffers come free
	var before, after runtime.MemStats
	misses := p.Stats().Misses
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	misses = p.Stats().Misses - misses
	if misses == 0 {
		t.Fatal("the last sweep missed nothing")
	}
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / misses; perMiss >= PageSize/8 {
		t.Fatalf("after the release a miss allocates %d bytes; the parked buffers should be reused", perMiss)
	}
}

func TestConcurrentCursors(t *testing.T) {
	// Many goroutines sweep random-ish page orders through a tiny pool
	// under -race; every byte read must match the file.
	pages := int64(4 * minFrames)
	size := pages*PageSize - 123 // short last page
	data, src := testFile(size)
	p := New(src, size, minFrames*PageSize)
	var wg sync.WaitGroup
	var fails atomic.Int32
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := p.NewCursor()
			defer c.Release()
			x := uint64(w + 1)
			for i := 0; i < 400; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				page := int64(x % uint64(pages))
				got, err := c.View(page)
				if err != nil {
					fails.Add(1)
					return
				}
				lo := page * PageSize
				off := int(x % uint64(len(got)))
				if got[off] != data[lo+int64(off)] {
					fails.Add(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if fails.Load() != 0 {
		t.Fatalf("%d goroutines saw bad reads", fails.Load())
	}
	s := p.Stats()
	if s.PinnedPages != 0 {
		t.Fatalf("pinned = %d after all cursors released", s.PinnedPages)
	}
	if s.ResidentPages > s.BudgetPages {
		t.Fatalf("resident %d over budget %d at rest", s.ResidentPages, s.BudgetPages)
	}
}

// offsetFile is a file whose every 8-byte word holds its own offset, read
// in two halves with a scheduling point between them, so a frame stays
// half-loaded long enough for other goroutines to find it.
type offsetFile struct{ size int64 }

func (f offsetFile) ReadAt(p []byte, off int64) (int, error) {
	if off%8 != 0 || len(p)%8 != 0 || off+int64(len(p)) > f.size {
		return 0, errors.New("offsetFile: unaligned or out-of-range read")
	}
	half := len(p) / 16 * 8
	for i := 0; i < len(p); i += 8 {
		if i == half {
			runtime.Gosched()
		}
		binary.LittleEndian.PutUint64(p[i:], uint64(off)+uint64(i))
	}
	return len(p), nil
}

// TestStressViewTryView is the lock-free hit path's torture test (run it
// under -race): cursors on many goroutines mix View and TryView over
// four times more pages than frames. Every view must show its own page's
// bytes when returned and still when the cursor moves on — a buffer
// handed to another page while a cursor holds it (a lost claim race), or
// a TryView of a frame still being read into, shows other bytes — and at
// rest nothing is pinned and the pool is back inside its budget.
func TestStressViewTryView(t *testing.T) {
	const frames, goroutines, iters = 16, 12, 1500
	pages := int64(4 * frames)
	size := pages*PageSize - PageSize/2 // short last page
	p := New(offsetFile{size}, size, frames*PageSize)

	// check verifies five words of b against page's offsets.
	check := func(b []byte, page int64, x uint64) bool {
		words := uint64(len(b) / 8)
		for _, w := range []uint64{0, words - 1, x % words, (x >> 20) % words, (x >> 40) % words} {
			if binary.LittleEndian.Uint64(b[w*8:]) != uint64(page*PageSize)+w*8 {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	var tryHits atomic.Int64
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := p.NewCursor()
			defer c.Release()
			x := uint64(g + 1)
			var held []byte
			heldPage := int64(-1)
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				page := int64((x >> 33) % uint64(pages))
				// The page held since the last iteration is still itself.
				if held != nil && !check(held, heldPage, x) {
					errs <- fmt.Sprintf("page %d changed under a pinned cursor", heldPage)
					return
				}
				var b []byte
				if x&1 == 0 {
					var err error
					if b, err = c.View(page); err != nil {
						errs <- err.Error()
						return
					}
				} else {
					var ok bool
					if b, ok = c.TryView(page); !ok {
						continue // not resident: the cursor keeps what it held
					}
					tryHits.Add(1)
				}
				want := int64(PageSize)
				if page == pages-1 {
					want = size - page*PageSize
				}
				if int64(len(b)) != want || !check(b, page, x) {
					errs <- fmt.Sprintf("view of page %d (TryView: %v) shows other bytes or %d of them", page, x&1 == 1, len(b))
					return
				}
				held, heldPage = b, page
				if i%7 == 0 {
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	s := p.Stats()
	if s.PinnedPages != 0 {
		t.Fatalf("pinned = %d after all cursors released", s.PinnedPages)
	}
	if s.ResidentPages > s.BudgetPages {
		t.Fatalf("resident %d over budget %d at rest", s.ResidentPages, s.BudgetPages)
	}
	if tryHits.Load() == 0 || s.Evictions == 0 {
		t.Fatalf("%d TryView hits, %d evictions: the test exercised nothing", tryHits.Load(), s.Evictions)
	}
}

// flakyReader fails the first read of every page, then succeeds.
type flakyReader struct {
	src    io.ReaderAt
	mu     sync.Mutex
	failed map[int64]bool
}

func (f *flakyReader) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	first := !f.failed[off]
	f.failed[off] = true
	f.mu.Unlock()
	if first {
		return 0, errors.New("injected read failure")
	}
	return f.src.ReadAt(p, off)
}

func TestReadErrorRetries(t *testing.T) {
	size := int64(2 * PageSize)
	data, src := testFile(size)
	p := New(&flakyReader{src: src, failed: make(map[int64]bool)}, size, 1<<20)
	c := p.NewCursor()
	defer c.Release()
	if _, err := c.View(0); err == nil {
		t.Fatal("first View succeeded despite injected failure")
	}
	got, err := c.View(0)
	if err != nil {
		t.Fatalf("retry after injected failure: %v", err)
	}
	if !bytes.Equal(got, data[:PageSize]) {
		t.Fatal("retried page has wrong content")
	}
	if s := p.Stats(); s.PinnedPages != 0 {
		t.Fatalf("pinned = %d, want 0", s.PinnedPages)
	}
}

func TestAlignment(t *testing.T) {
	// Cursor views promise an 8-byte-aligned base so element views
	// (u32/u64) into pages never misalign.
	size := int64(2*PageSize + 12)
	_, src := testFile(size)
	p := New(src, size, 1<<20)
	c := p.NewCursor()
	defer c.Release()
	for page := int64(0); page < p.NumPages(); page++ {
		b, err := c.View(page)
		if err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(&b[0])); addr%8 != 0 {
			t.Fatalf("page %d base %#x not 8-aligned", page, addr)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1048576", 1 << 20, false},
		{"64KiB", 64 << 10, false},
		{"512MiB", 512 << 20, false},
		{"2GiB", 2 << 30, false},
		{"2G", 2 << 30, false},
		{"12m", 12 << 20, false},
		{"8kb", 8 << 10, false},
		{" 16 MiB ", 16 << 20, false},
		{"123B", 123, false},
		{"", 0, true},
		{"-1", 0, true},
		{"-4K", 0, true},
		{"10TiB", 0, true}, // unknown suffix: "10TI" fails to parse
		{"1e6", 0, true},
		{"9999999999G", 0, true}, // overflow
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
