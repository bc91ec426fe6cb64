package gstore

// The paged open: graphs bigger than RAM. A normal Open maps the whole
// file and lets the kernel page it — fine until walk-shaped random
// access over a graph several times RAM turns every step into a major
// fault the kernel cannot be told a budget for. openPaged instead
// keeps only the offset arrays (and perm) resident and serves the two
// adjacency sections through internal/graph/pcache: a bounded buffer
// pool of 4 KiB pages with CLOCK eviction and unpinned, epoch-protected
// reads, sized by OpenOptions.Mem.

import (
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/graph/pcache"
	"repro/internal/secfile"
)

// openPaged opens path with a bounded adjacency cache (see
// OpenOptions.Mem).
func openPaged(path string, opts OpenOptions) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return OpenPagedReaderAt(f, st.Size(), f, opts)
}

// OpenPagedReaderAt is the paged open over any random-access source of
// a gstore file's size bytes (it must support concurrent ReadAt): the
// offsets are read up front, the adjacency through a page cache of
// opts.Mem bytes for as long as the graph is open. Checksums are
// verified by streaming the source once (unless NoVerify) — O(1)
// memory, nothing retained. closer, when non-nil, is closed by the
// graph's Close, and here on error.
func OpenPagedReaderAt(src io.ReaderAt, size int64, closer io.Closer, opts OpenOptions) (*graph.Graph, error) {
	fail := func(err error) (*graph.Graph, error) {
		if closer != nil {
			closer.Close()
		}
		return nil, err
	}
	head := make([]byte, 8)
	if n, err := src.ReadAt(head, 0); err != nil {
		return fail(fmt.Errorf("%w: %w: file is %d bytes", ErrFormat, secfile.ErrFormat, n))
	}
	sc := schemaFor(head)
	hdr := make([]byte, sc.HeaderSize)
	if _, err := src.ReadAt(hdr, 0); err != nil {
		return fail(fmt.Errorf("%w: %w: short header: %v", ErrFormat, secfile.ErrFormat, err))
	}
	secs, err := sc.Parse(hdr, size)
	if err != nil {
		return fail(err)
	}
	if !opts.NoVerify {
		if err := sc.VerifySectionsReaderAt(src, secs); err != nil {
			return fail(err)
		}
	}

	n, m := headerCounts(hdr)
	// Offsets (and perm) stay resident: they are the per-step lookup
	// tables, O(n) bytes vs the adjacency's O(m).
	readSection := func(i int) ([]byte, error) {
		buf := secfile.AlignedBytes(int(secs[i].Len))
		if secs[i].Len == 0 {
			return buf, nil
		}
		if _, err := src.ReadAt(buf, int64(secs[i].Off)); err != nil {
			return nil, fmt.Errorf("%w: %w: reading section %d: %v", ErrFormat, secfile.ErrFormat, i, err)
		}
		return buf, nil
	}
	outOffB, err := readSection(0)
	if err != nil {
		return fail(err)
	}
	inOffB, err := readSection(2)
	if err != nil {
		return fail(err)
	}
	var perm []graph.VertexID
	if sc == schema2 {
		permB, err := readSection(4)
		if err != nil {
			return fail(err)
		}
		perm = secfile.View[graph.VertexID](permB, 0, int(n))
	}

	pager := &filePager{
		pool:    pcache.New(src, size, opts.Mem),
		closer:  closer,
		outBase: int64(secs[1].Off),
		inBase:  int64(secs[3].Off),
	}
	g, err := graph.FromPagedCSR(graph.PagedCSR{
		NumVertices: int(n),
		NumEdges:    int64(m),
		OutOff:      secfile.View[int64](outOffB, 0, int(n)+1),
		InOff:       secfile.View[int64](inOffB, 0, int(n)+1),
		Perm:        perm,
		Pager:       pager,
	}) // FromPagedCSR closes the pager (and so the file) on error
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return g, nil
}

// filePager serves the two adjacency sections out of one pcache.Pool
// over the whole file; cursors address elements relative to each
// section's base byte offset.
type filePager struct {
	pool    *pcache.Pool
	closer  io.Closer // the file, when the pager owns one
	outBase int64
	inBase  int64
}

func (p *filePager) NewCursor() graph.AdjCursor {
	return &fileCursor{p: p, cur: p.pool.NewCursor()}
}

func (p *filePager) Stats() graph.PageCacheStats {
	s := p.pool.Stats()
	return graph.PageCacheStats{
		PageSize:      pcache.PageSize,
		BudgetBytes:   s.BudgetBytes,
		BudgetPages:   s.BudgetPages,
		ResidentPages: s.ResidentPages,
		PinnedPages:   s.PinnedPages,
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		ReadBytes:     s.ReadBytes,
	}
}

func (p *filePager) Close() error {
	if p.closer == nil {
		return nil
	}
	return p.closer.Close()
}

// fileCursor adapts a pool cursor to the graph.AdjCursor element view.
// Section bases are 8-aligned and PageSize is a multiple of 8, so a
// 4-byte element is always 4-aligned within its page and never
// straddles a page boundary; likewise the (8-aligned) file size makes
// even a short last page a multiple of 8 long.
type fileCursor struct {
	p   *filePager
	cur *pcache.Cursor
}

func (c *fileCursor) view(page int64) []byte {
	b, err := c.cur.View(page)
	if err != nil {
		// Parity with an mmap'd graph losing its file (SIGBUS): the
		// storage under an open graph went away mid-read.
		panic(err)
	}
	return b
}

func (c *fileCursor) elem(off int64) graph.VertexID {
	page := off / pcache.PageSize
	b := c.view(page)
	return *(*graph.VertexID)(unsafe.Pointer(&b[off-page*pcache.PageSize]))
}

func (c *fileCursor) rangeInto(base, lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	end := base + hi*4
	for off := base + lo*4; off < end; {
		page := off / pcache.PageSize
		b := c.view(page)
		rel := off - page*pcache.PageSize
		avail := int64(len(b)) - rel
		if want := end - off; want < avail {
			avail = want
		}
		dst = append(dst, unsafe.Slice((*graph.VertexID)(unsafe.Pointer(&b[rel])), avail/4)...)
		off += avail
	}
	return dst
}

func (c *fileCursor) Out(i int64) graph.VertexID { return c.elem(c.p.outBase + i*4) }

func (c *fileCursor) TryOut(i int64) (graph.VertexID, bool) {
	off := c.p.outBase + i*4
	page := off / pcache.PageSize
	b, ok := c.cur.TryView(page)
	if !ok {
		return 0, false
	}
	return *(*graph.VertexID)(unsafe.Pointer(&b[off-page*pcache.PageSize])), true
}

func (c *fileCursor) OutRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	return c.rangeInto(c.p.outBase, lo, hi, dst)
}

func (c *fileCursor) InRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	return c.rangeInto(c.p.inBase, lo, hi, dst)
}

func (c *fileCursor) OutPage(i int64) int64 {
	return (c.p.outBase + i*4) / pcache.PageSize
}

func (c *fileCursor) PageSwitches() uint64 { return c.cur.Switches() }

func (c *fileCursor) Release() { c.cur.Release() }
