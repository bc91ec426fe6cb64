package graph

// This file extends the storage seam (storage.go) out of core: a Graph
// whose offset arrays (and optional row permutation) are resident but
// whose adjacency lives behind an AdjPager — a bounded page cache over
// the on-disk sections (see internal/graph/gstore's paged open and
// internal/graph/pcache). Every adjacency read, resident or paged, goes
// through AdjReader, a per-goroutine handle that is allocation-free on
// resident graphs and cursor-backed on paged ones.

import (
	"errors"
	"fmt"
)

// PageCacheStats is a point-in-time view of a paged graph's cache: the
// page geometry, the configured budget, the current resident gauge and
// the pages pinned by a load in flight, and the access counters
// (ReadBytes: what the misses read from the file). The serving layer
// renders these in /metrics and /v1/stats.
type PageCacheStats struct {
	PageSize      int
	BudgetBytes   int64
	BudgetPages   int
	ResidentPages int
	PinnedPages   int
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	ReadBytes     uint64
}

// An AdjCursor is one goroutine's handle on paged adjacency. Indices
// are positions into the logical outAdj/inAdj arrays (what the offset
// arrays address). A cursor pins nothing: it reads inside an epoch
// section of the page cache, opened on its first read and closed on its
// own miss or on Release. Cursors are not safe for concurrent use, and
// must be Released — an open section holds back the recycling of every
// page evicted after it opened.
//
// I/O failures surface as panics: a paged read that fails mid-walk has
// the same character as a SIGBUS on an mmap'd graph — the storage
// under an open graph went away — and threading an error return
// through every adjacency access would tax the resident fast path. A
// failed read leaves the cursor outside its section and usable; the
// serving layer recovers where it walks or rebuilds over a graph
// (serve's catchStorageFault).
type AdjCursor interface {
	// Out returns logical outAdj[i].
	Out(i int64) VertexID
	// TryOut returns logical outAdj[i] if its page is in the cache, and
	// false — without reading, blocking or moving the cursor — if not.
	// It never does I/O, so it never panics.
	TryOut(i int64) (VertexID, bool)
	// OutRange appends logical outAdj[lo:hi] to dst and returns it.
	OutRange(lo, hi int64, dst []VertexID) []VertexID
	// InRange appends logical inAdj[lo:hi] to dst and returns it.
	InRange(lo, hi int64, dst []VertexID) []VertexID
	// OutPage returns the cache page holding logical outAdj[i] — the
	// sort key page-aware schedulers batch on.
	OutPage(i int64) int64
	// PageSwitches counts the reads so far that moved the cursor to
	// another page.
	PageSwitches() uint64
	// Release closes the cursor's section.
	Release()
}

// An AdjPager serves a graph's adjacency out of core: cursors for
// access, stats for observability, Close to release the pool and the
// underlying file. It is the backing owner of a paged Graph (Close on
// the graph closes it).
type AdjPager interface {
	NewCursor() AdjCursor
	Stats() PageCacheStats
	Close() error
}

// PagedCSR describes a graph whose offsets (and optional permutation)
// are resident while the adjacency stays behind a pager.
type PagedCSR struct {
	NumVertices int
	NumEdges    int64
	OutOff      []int64
	InOff       []int64
	// Perm, when non-nil, is the external→internal row permutation
	// (see CSR.Perm).
	Perm  []VertexID
	Pager AdjPager
}

// FromPagedCSR wraps resident offsets plus a pager in a Graph. The
// offset invariants and the permutation's bijectivity are checked (the
// adjacency contents cannot be — they are the point of paging; the
// checksummed formats verify them at open). The pager is closed on
// error; on success the graph's Close closes it.
func FromPagedCSR(c PagedCSR) (*Graph, error) {
	fail := func(err error) (*Graph, error) {
		if c.Pager != nil {
			c.Pager.Close()
		}
		return nil, err
	}
	if c.Pager == nil {
		return fail(errors.New("graph: paged CSR needs a pager"))
	}
	n := c.NumVertices
	if err := checkOffsets(n, c.OutOff, c.InOff, c.NumEdges); err != nil {
		return fail(err)
	}
	if err := checkPerm(n, c.Perm); err != nil {
		return fail(err)
	}
	return &Graph{
		n:       n,
		m:       c.NumEdges,
		outOff:  c.OutOff,
		inOff:   c.InOff,
		perm:    c.Perm,
		pager:   c.Pager,
		backing: c.Pager,
	}, nil
}

// checkPerm verifies perm is a bijection on [0,n) (nil is the
// identity and always fine).
func checkPerm(n int, perm []VertexID) error {
	if perm == nil {
		return nil
	}
	if len(perm) != n {
		return fmt.Errorf("graph: permutation length %d for n=%d", len(perm), n)
	}
	seen := make([]bool, n)
	for v, r := range perm {
		if int(r) >= n {
			return fmt.Errorf("graph: permutation maps %d to %d, out of range for n=%d", v, r, n)
		}
		if seen[r] {
			return fmt.Errorf("graph: permutation is not a bijection (row %d hit twice)", r)
		}
		seen[r] = true
	}
	return nil
}

// Paged reports whether the graph's adjacency lives behind a pager
// (reads go through the page cache instead of resident arrays).
func (g *Graph) Paged() bool { return g.pager != nil }

// PageCacheStats returns the page cache's counters for paged graphs;
// ok is false (and the stats zero) for resident graphs.
func (g *Graph) PageCacheStats() (PageCacheStats, bool) {
	if g.pager == nil {
		return PageCacheStats{}, false
	}
	return g.pager.Stats(), true
}

// rowOf maps an external vertex id to its internal CSR row.
func (g *Graph) rowOf(v VertexID) VertexID {
	if g.perm != nil {
		return g.perm[v]
	}
	return v
}

// AdjReader is a per-goroutine adjacency handle and the graph's only
// way to read neighbors: on resident graphs its reads are zero-copy
// slices of the CSR arrays; on paged graphs it holds one cursor and one
// reusable row buffer, so a walk costs no allocation per step. Not safe
// for concurrent use; Release when done (a no-op on resident graphs).
type AdjReader struct {
	g      *Graph
	cur    AdjCursor
	outBuf []VertexID
	inBuf  []VertexID
}

// NewAdjReader returns a reader over g.
func (g *Graph) NewAdjReader() *AdjReader {
	r := &AdjReader{g: g}
	if g.pager != nil {
		r.cur = g.pager.NewCursor()
	}
	return r
}

// OutNeighbors returns the successors of v. The slice must not be
// modified: on resident graphs it aliases the CSR, and on paged graphs
// it is the reader's scratch buffer, valid until the next call.
func (r *AdjReader) OutNeighbors(v VertexID) []VertexID {
	g := r.g
	row := g.rowOf(v)
	lo, hi := g.outOff[row], g.outOff[row+1]
	if r.cur == nil {
		return g.outAdj[lo:hi]
	}
	r.outBuf = r.cur.OutRange(lo, hi, r.outBuf[:0])
	return r.outBuf
}

// InNeighbors returns the predecessors of v, with the same aliasing
// rules as OutNeighbors.
func (r *AdjReader) InNeighbors(v VertexID) []VertexID {
	g := r.g
	row := g.rowOf(v)
	lo, hi := g.inOff[row], g.inOff[row+1]
	if r.cur == nil {
		return g.inAdj[lo:hi]
	}
	r.inBuf = r.cur.InRange(lo, hi, r.inBuf[:0])
	return r.inBuf
}

// OutDegree returns v's out-degree (always resident: offsets are never
// paged).
func (r *AdjReader) OutDegree(v VertexID) int {
	row := r.g.rowOf(v)
	return int(r.g.outOff[row+1] - r.g.outOff[row])
}

// OutAt returns the i'th successor of v (one element, one page touch
// on paged graphs — the step primitive random walks want).
func (r *AdjReader) OutAt(v VertexID, i int) VertexID {
	g := r.g
	lo := g.outOff[g.rowOf(v)]
	if r.cur == nil {
		return g.outAdj[lo+int64(i)]
	}
	return r.cur.Out(lo + int64(i))
}

// OutSpan returns where v's successors sit in the logical out-adjacency
// array — they are elements [lo, lo+deg) — from one permutation and one
// offset lookup (always resident). It is what a walk step resolves once,
// to draw an index below deg and read element lo+index with TryOut.
func (r *AdjReader) OutSpan(v VertexID) (lo int64, deg int) {
	row := r.g.rowOf(v)
	lo = r.g.outOff[row]
	return lo, int(r.g.outOff[row+1] - lo)
}

// TryOut reads element at of the logical out-adjacency array without
// I/O: the successor if the page holding it is in the cache (always, on
// a resident graph), and false if reading it would have to load a page.
// A hit takes no lock and writes no shared word — a page-table load and
// two flag checks inside the cursor's epoch section — so it costs a few
// nanoseconds over a resident read. Page-aware schedulers use it to
// keep working in memory and batch what is genuinely not there.
func (r *AdjReader) TryOut(at int64) (VertexID, bool) {
	if r.cur == nil {
		return r.g.outAdj[at], true
	}
	return r.cur.TryOut(at)
}

// PageSwitches counts the reader's element reads so far that moved its
// cursor to another cache page (always 0 on resident graphs).
func (r *AdjReader) PageSwitches() uint64 {
	if r.cur == nil {
		return 0
	}
	return r.cur.PageSwitches()
}

// OutPage returns the cache page holding element at of the logical
// out-adjacency array (0 on resident graphs). Page-aware schedulers sort
// pending accesses by it so random access becomes near-sequential sweeps.
func (r *AdjReader) OutPage(at int64) int64 {
	if r.cur == nil {
		return 0
	}
	return r.cur.OutPage(at)
}

// Release closes the reader's cursor section (no-op on resident
// graphs), letting the page cache recycle the pages it read. The reader
// stays usable; the next paged read opens a new section.
func (r *AdjReader) Release() {
	if r.cur != nil {
		r.cur.Release()
	}
}
