// Package gio reads and writes graphs in two formats:
//
//   - SNAP-style edge-list text: one "src dst" pair per line, '#'
//     comments allowed, the format of the paper's LiveJournal and
//     Twitter datasets. Vertex ids are remapped densely in first-seen
//     order.
//   - The gstore mmap-able CSR format ("FWGSTOR1", or "FWGSTOR2" when
//     relabeled; see internal/graph/gstore): checksummed sections that
//     Load opens zero-copy, so open time is independent of graph size.
//
// Load tells them apart by magic. Files ending in ".gz" are
// compressed/decompressed transparently (a gzipped gstore file is
// decoded from the stream instead of mmap'd).
package gio

import (
	"bufio"
	"compress/gzip"
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

// ReadEdgeList parses a SNAP-style edge-list stream. Vertex ids are
// remapped to dense [0, n) in first-appearance order, and a vertex with
// no out-edge gets a self loop, so every loaded graph is FrogWild-ready.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
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
	b := graph.NewBuilder(len(idmap))
	b.AddEdges(edges)
	return b.Build()
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

// Load loads a graph from path, telling the format by magic: gstore CSR
// (opened zero-copy via mmap when possible) or, failing that, edge-list
// text. mem > 0 opens a gstore file paged with roughly that many bytes
// of adjacency resident (the bigger-than-RAM path; see
// gstore.OpenOptions.Mem); input that cannot bound its residency — edge
// lists, gzipped streams — is then an error rather than a silent full
// load.
func Load(path string, mem int64) (*graph.Graph, error) {
	rc, err := openReader(path)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	br := bufio.NewReaderSize(rc, 1<<20)
	head, _ := br.Peek(8)
	// The 7-byte shared prefix covers FWGSTOR1, the relabeled FWGSTOR2
	// and, for its own error, a version gstore does not know; gstore
	// dispatches the version itself.
	isStore := strings.HasPrefix(string(head), gstore.MagicPrefix)
	switch {
	case isStore && !strings.HasSuffix(path, ".gz"):
		// The mmap or page cache needs the file, not this buffered stream.
		return gstore.Open(path, gstore.OpenOptions{Mem: mem})
	case mem > 0:
		return nil, fmt.Errorf("gio: %s: -graph-mem budget needs an uncompressed gstore file", path)
	case isStore:
		return gstore.Read(br, gstore.OpenOptions{})
	case strings.HasPrefix(string(head), "FWG1"):
		// The unchecksummed binary edge list gengraph wrote before gstore
		// replaced it: refused by name, never parsed as edge-list text.
		return nil, fmt.Errorf("gio: %s is a FWG1 binary edge list, which is no longer read; regenerate it with gengraph -format csr", path)
	}
	return ReadEdgeList(br)
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
