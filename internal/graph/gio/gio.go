// Package gio reads and writes graphs in three formats:
//
//   - SNAP-style edge-list text: one "src dst" pair per line, '#'
//     comments allowed, the format of the paper's LiveJournal and
//     Twitter datasets. Vertex ids are remapped densely in first-seen
//     order unless they are already dense.
//   - A compact binary edge-list format ("FWG1") for fast reloads;
//     loading rebuilds the CSR arrays.
//   - The gstore mmap-able CSR format ("FWGSTOR1", see
//     internal/graph/gstore): checksummed sections that Load opens
//     zero-copy, so open time is independent of graph size.
//
// Load auto-detects all three by magic. Files ending in ".gz" are
// compressed/decompressed transparently (a gzipped gstore file is
// decoded from the stream instead of mmap'd).
package gio

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/graph/gstore"
)

// openReader opens path for reading, wrapping in gzip when the name
// ends in ".gz".
func openReader(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &gzipReadCloser{zr: zr, f: f}, nil
}

type gzipReadCloser struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.zr.Read(p) }
func (g *gzipReadCloser) Close() error {
	zerr := g.zr.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// openWriter creates path for writing, wrapping in gzip when the name
// ends in ".gz". Call the returned closer to flush.
func openWriter(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	return &gzipWriteCloser{zw: gzip.NewWriter(f), f: f}, nil
}

type gzipWriteCloser struct {
	zw *gzip.Writer
	f  *os.File
}

func (g *gzipWriteCloser) Write(p []byte) (int, error) { return g.zw.Write(p) }
func (g *gzipWriteCloser) Close() error {
	zerr := g.zw.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// EdgeListOptions controls text edge-list parsing.
type EdgeListOptions struct {
	// Dangling is the repair policy applied after loading.
	Dangling graph.DanglingPolicy
	// AllowDangling permits dangling vertices under DanglingKeep.
	AllowDangling bool
	// Dedup removes duplicate edges.
	Dedup bool
	// NoSelfLoops drops self loops.
	NoSelfLoops bool
}

// ReadEdgeList parses a SNAP-style edge-list stream. Vertex ids are
// remapped to dense [0, n) in first-appearance order.
func ReadEdgeList(r io.Reader, opts EdgeListOptions) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	idmap := make(map[uint64]uint32)
	var edges []graph.Edge
	lineNo := 0
	lookup := func(raw uint64) uint32 {
		if id, ok := idmap[raw]; ok {
			return id
		}
		id := uint32(len(idmap))
		idmap[raw] = id
		return id
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("gio: line %d: want 'src dst', got %q", lineNo, line)
		}
		s, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad src: %v", lineNo, err)
		}
		d, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gio: line %d: bad dst: %v", lineNo, err)
		}
		edges = append(edges, graph.Edge{Src: lookup(s), Dst: lookup(d)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	b := graph.NewBuilder(len(idmap)).Dangling(opts.Dangling)
	if opts.AllowDangling {
		b.AllowDangling()
	}
	if opts.Dedup {
		b.Dedup()
	}
	if opts.NoSelfLoops {
		b.NoSelfLoops()
	}
	b.AddEdges(edges)
	return b.Build()
}

// LoadEdgeList reads an edge-list file (optionally .gz).
func LoadEdgeList(path string, opts EdgeListOptions) (*graph.Graph, error) {
	rc, err := openReader(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return ReadEdgeList(rc, opts)
}

// WriteEdgeList writes the graph as "src dst" lines.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var scratch [24]byte
	var outerErr error
	g.Edges(func(e graph.Edge) bool {
		buf := strconv.AppendUint(scratch[:0], uint64(e.Src), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			outerErr = err
			return false
		}
		return true
	})
	if outerErr != nil {
		return outerErr
	}
	return bw.Flush()
}

// SaveEdgeList writes an edge-list file (optionally .gz).
func SaveEdgeList(path string, g *graph.Graph) error {
	wc, err := openWriter(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(wc, g); err != nil {
		wc.Close()
		return err
	}
	return wc.Close()
}

// binaryMagic identifies the binary graph format, version 1.
const binaryMagic = "FWG1"

// WriteBinary serializes the graph in the compact binary format:
// magic, n (u64), m (u64), then m (src,dst) u32 pairs in CSR order.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(g.NumVertices()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.NumEdges()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [8]byte
	var outerErr error
	g.Edges(func(e graph.Edge) bool {
		binary.LittleEndian.PutUint32(rec[0:4], e.Src)
		binary.LittleEndian.PutUint32(rec[4:8], e.Dst)
		if _, err := bw.Write(rec[:]); err != nil {
			outerErr = err
			return false
		}
		return true
	})
	if outerErr != nil {
		return outerErr
	}
	return bw.Flush()
}

// ErrBadFormat indicates a corrupt or foreign binary graph file.
var ErrBadFormat = errors.New("gio: not a FWG1 binary graph")

// ReadBinary deserializes a graph written by WriteBinary, including
// the O(E) structural validation (the format has no checksums, so the
// rebuilt CSR is the only integrity check). Use LoadWith with
// ValidateOff to skip it.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	return readBinary(bufio.NewReaderSize(r, 1<<20), true)
}

// readBinary is ReadBinary over an existing buffered reader with the
// validation pass optional.
func readBinary(br io.Reader, validate bool) (*graph.Graph, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != binaryMagic {
		return nil, ErrBadFormat
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadFormat)
	}
	n := binary.LittleEndian.Uint64(hdr[0:8])
	m := binary.LittleEndian.Uint64(hdr[8:16])
	if n > 1<<31 || m > 1<<40 {
		return nil, fmt.Errorf("%w: implausible sizes n=%d m=%d", ErrBadFormat, n, m)
	}
	// Grow the edge slice as records arrive instead of trusting the
	// header's m for one up-front allocation: a truncated or hostile
	// file then fails with a format error once the stream ends, having
	// allocated memory proportional to the actual data.
	edges := make([]graph.Edge, 0, min(m, 1<<20))
	var rec [8]byte
	for i := uint64(0); i < m; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated at edge %d", ErrBadFormat, i)
		}
		s := binary.LittleEndian.Uint32(rec[0:4])
		d := binary.LittleEndian.Uint32(rec[4:8])
		if uint64(s) >= n || uint64(d) >= n {
			return nil, fmt.Errorf("%w: edge %d out of range", ErrBadFormat, i)
		}
		edges = append(edges, graph.Edge{Src: s, Dst: d})
	}
	g := graph.FromEdges(int(n), edges)
	if validate {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
	}
	return g, nil
}

// SaveBinary writes the binary format to path (optionally .gz).
func SaveBinary(path string, g *graph.Graph) error {
	wc, err := openWriter(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(wc, g); err != nil {
		wc.Close()
		return err
	}
	return wc.Close()
}

// LoadBinary reads the binary format from path (optionally .gz).
func LoadBinary(path string) (*graph.Graph, error) {
	rc, err := openReader(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return ReadBinary(rc)
}

// ValidateMode says whether loaders run the O(E) Graph.Validate pass
// after building the graph.
type ValidateMode int

const (
	// ValidateAuto validates formats with no integrity protection of
	// their own (the FWG1 binary edge list) and skips the pass where
	// it is redundant: gstore files carry per-section checksums, and
	// edge-list text is built by the Builder, which only produces
	// well-formed graphs.
	ValidateAuto ValidateMode = iota
	// ValidateOn always runs the pass — the right choice for files
	// from untrusted sources, including crafted gstore files whose
	// checksums match their (hostile) content.
	ValidateOn
	// ValidateOff never runs it.
	ValidateOff
)

// LoadOptions controls LoadWith across all three formats.
type LoadOptions struct {
	// EdgeList applies when the file turns out to be edge-list text.
	EdgeList EdgeListOptions
	// Validate selects the post-load O(E) validation policy.
	Validate ValidateMode
	// Mmap selects how gstore files are opened (auto = mmap with
	// buffered-read fallback). Ignored for the other formats and for
	// gzipped gstore streams, which are always buffered.
	Mmap gstore.OpenMode
	// Mem, when > 0, opens gstore files paged with roughly this many
	// bytes of adjacency resident (the bigger-than-RAM path; see
	// gstore.OpenOptions.Mem). Formats that cannot bound residency —
	// edge lists, FWG1 binary, gzipped streams — are an error under a
	// budget rather than a silent full load.
	Mem int64
}

// Load loads a graph from path with default options, auto-detecting
// the format by magic: gstore CSR (opened zero-copy via mmap when
// possible), FWG1 binary, or edge-list text.
func Load(path string, opts EdgeListOptions) (*graph.Graph, error) {
	return LoadWith(path, LoadOptions{EdgeList: opts})
}

// LoadWith is Load with explicit validation and mmap policy. The two
// binary formats are told apart by magic; files matching neither parse
// as edge-list text.
func LoadWith(path string, opts LoadOptions) (*graph.Graph, error) {
	rc, err := openReader(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(rc, 1<<20)
	head, _ := br.Peek(8)
	// A -graph-mem budget is an error for input that cannot be paged.
	resident := func(what string) error {
		if opts.Mem > 0 {
			return fmt.Errorf("gio: %s: -graph-mem budget needs an uncompressed gstore file; %s fully resident", path, what)
		}
		return nil
	}
	switch {
	case strings.HasPrefix(string(head), gstore.MagicPrefix):
		// The 7-byte shared prefix covers FWGSTOR1, the relabeled
		// FWGSTOR2 and, for its own error, a version gstore does not
		// know; gstore dispatches the version itself.
		if !strings.HasSuffix(path, ".gz") {
			// Reopen through gstore's file path (the mmap or page cache
			// needs the file, not this buffered stream).
			rc.Close()
			return gstore.Open(path, gstoreOptions(opts))
		}
		defer rc.Close()
		if err := resident("gstore CSR streams load"); err != nil {
			return nil, err
		}
		return gstore.Read(br, gstoreOptions(opts))
	case strings.HasPrefix(string(head), binaryMagic):
		defer rc.Close()
		if err := resident("FWG1 binary edge list streams load"); err != nil {
			return nil, err
		}
		// The FWG1 format has no checksums, so the post-load validation
		// pass runs unless explicitly disabled.
		return readBinary(br, opts.Validate != ValidateOff)
	}
	defer rc.Close()
	if err := resident("edge-list text loads"); err != nil {
		return nil, err
	}
	g, err := ReadEdgeList(br, opts.EdgeList)
	if err != nil {
		return nil, err
	}
	if opts.Validate == ValidateOn {
		if err := g.Validate(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// gstoreOptions maps Load's policy knobs onto the gstore schema's.
func gstoreOptions(opts LoadOptions) gstore.OpenOptions {
	return gstore.OpenOptions{Mode: opts.Mmap, Validate: opts.Validate == ValidateOn, Mem: opts.Mem}
}

// SaveCSR writes g in the gstore mmap-able CSR format. Plain paths are
// written atomically (temp file + rename); ".gz" paths are gzip
// streams, which Load decodes buffered instead of mmap'ing.
func SaveCSR(path string, g *graph.Graph) error {
	if !strings.HasSuffix(path, ".gz") {
		return gstore.Save(path, g)
	}
	wc, err := openWriter(path)
	if err != nil {
		return err
	}
	if err := gstore.Write(wc, g); err != nil {
		wc.Close()
		return err
	}
	return wc.Close()
}
