// Package gstore defines the repository's persistent graph storage
// format: a versioned binary CSR layout ("FWGSTOR1") designed to be
// mapped straight into memory. The four adjacency arrays are written
// as 8-byte-aligned sections behind a fixed header, each protected by
// a CRC-64 checksum, so Open can hand the kernel's page cache to the
// Graph without copying: the adjacency slices alias the mmap'd file
// pages, no parse or counting sort ever runs, and graphs bigger than
// RAM stay usable (the kernel pages sections in on demand). The
// default open's one size-dependent cost is a sequential checksum
// pass over the file: 13.6–14.8 GB/s on amd64 with PCLMULQDQ and
// 1.2 GB/s through hash/crc64's table elsewhere (one 2-vCPU Xeon
// container), so ≈ 1 ms for the benchmark's 12 MB graph. NoVerify
// skips it for trusted files, making the open O(offsets). A buffered
// read path decodes the same bytes on platforms (or transports, e.g.
// gzip streams) where mmap is unavailable.
//
// The byte-level discipline — header prelude, checksummed section
// table, atomic save, mmap-vs-buffered open, bounded stream read — is
// the shared internal/secfile codec; this package is the FWGSTOR1
// schema over it:
//
//	offset  size  field
//	0       8     magic "FWGSTOR1"
//	8       4     format version (1)
//	12      1     array byte order: 0 little-endian, 1 big-endian
//	13      3     reserved (zero)
//	16      8     n, vertex count
//	24      8     m, edge count
//	32      96    section table: 4 × (offset u64, length u64, crc64 u64)
//	              in order outOff, outAdj, inOff, inAdj
//	128     ...   sections, each 8-byte aligned
//
// outOff/inOff are (n+1) int64 prefix sums; outAdj/inAdj are m uint32
// vertex ids. Checksums are CRC-64/XZ (see internal/secfile) over each
// section's raw bytes.
package gstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/secfile"
)

// Magic identifies a plain gstore file; MagicPrefix is what gio's
// auto-detection sniffs (it covers both versions).
const Magic = "FWGSTOR1"

// Magic2 identifies a relabeled gstore file: the same four CSR
// sections plus a fifth holding the external→internal row permutation
// (see Relabel). Plain graphs keep writing FWGSTOR1 byte-identically.
const Magic2 = "FWGSTOR2"

// MagicPrefix is the 7 bytes the two versions share.
const MagicPrefix = "FWGSTOR"

// Version is the current format version (per magic).
const Version = 1

const (
	headerSize  = 128
	tableOffset = 32
	numSections = 4

	// FWGSTOR2 appends one table entry for the perm section; its
	// header grows by exactly that entry.
	headerSize2  = headerSize + secfile.EntrySize
	numSections2 = numSections + 1

	// maxVertices/maxEdges bound the header's claimed sizes before any
	// allocation or slicing happens, so a hostile header cannot make a
	// loader attempt an absurd allocation.
	maxVertices = 1 << 31
	maxEdges    = 1 << 40
)

// Errors the loaders return. All corruption detected by decoding wraps
// ErrFormat; checksum and byte-order failures are further
// distinguishable. Every failure also wraps the corresponding
// internal/secfile identity.
var (
	ErrFormat   = errors.New("gstore: not a gstore CSR graph file")
	ErrChecksum = errors.New("gstore: section checksum mismatch")
	ErrEndian   = errors.New("gstore: file written with foreign byte order")
)

// schema plugs the FWGSTOR1 layout into the shared codec: everything
// below the field layout (table pinning, checksums, atomic save, mmap
// open, bounded stream read) lives in internal/secfile.
var schema = &secfile.Schema{
	Magic:        Magic,
	Version:      Version,
	HeaderSize:   headerSize,
	TableOff:     tableOffset,
	NumSections:  numSections,
	SectionSizes: sectionSizes,
	ErrFormat:    ErrFormat,
	ErrChecksum:  ErrChecksum,
	ErrEndian:    ErrEndian,
}

// schema2 is the FWGSTOR2 layout: FWGSTOR1 plus a perm section of n
// uint32 row indices.
var schema2 = &secfile.Schema{
	Magic:        Magic2,
	Version:      Version,
	HeaderSize:   headerSize2,
	TableOff:     tableOffset,
	NumSections:  numSections2,
	SectionSizes: sectionSizes2,
	ErrFormat:    ErrFormat,
	ErrChecksum:  ErrChecksum,
	ErrEndian:    ErrEndian,
}

func gstoreFields(hdr []byte) []secfile.Field {
	n, m := headerCounts(hdr)
	return []secfile.Field{
		{Name: "vertices", Value: fmt.Sprint(n)},
		{Name: "edges", Value: fmt.Sprint(m)},
	}
}

func init() {
	secfile.Register(secfile.Info{
		Name:         "gstore CSR graph",
		Schema:       schema,
		SectionNames: []string{"outOff", "outAdj", "inOff", "inAdj"},
		Fields:       gstoreFields,
		// A paged open keeps the offset arrays resident and serves the
		// adjacency from the page cache.
		ResidentPaged: []bool{true, false, true, false},
	})
	secfile.Register(secfile.Info{
		Name:          "gstore CSR graph (degree-relabeled)",
		Schema:        schema2,
		SectionNames:  []string{"outOff", "outAdj", "inOff", "inAdj", "perm"},
		Fields:        gstoreFields,
		ResidentPaged: []bool{true, false, true, false, true},
	})
}

// headerCounts reads the n/m scalar fields.
func headerCounts(hdr []byte) (n, m uint64) {
	return binary.LittleEndian.Uint64(hdr[16:24]), binary.LittleEndian.Uint64(hdr[24:32])
}

// sectionSizes derives the four sections' byte lengths from the
// header's vertex and edge counts, bounding both before anything is
// allocated.
func sectionSizes(hdr []byte) ([]uint64, error) {
	n, m := headerCounts(hdr)
	if n > maxVertices || m > maxEdges {
		return nil, fmt.Errorf("implausible sizes n=%d m=%d", n, m)
	}
	return []uint64{(n + 1) * 8, m * 4, (n + 1) * 8, m * 4}, nil
}

// sectionSizes2 adds the perm section: n uint32 row indices.
func sectionSizes2(hdr []byte) ([]uint64, error) {
	sizes, err := sectionSizes(hdr)
	if err != nil {
		return nil, err
	}
	n, _ := headerCounts(hdr)
	return append(sizes, n*4), nil
}

// IsMagic reports whether head (the first bytes of a file or stream)
// starts a gstore file of either version.
func IsMagic(head []byte) bool { return schema.IsMagic(head) || schema2.IsMagic(head) }

// schemaFor picks the version schema for head's magic, defaulting to
// v1 so non-gstore bytes fail with its (unchanged) error text.
func schemaFor(head []byte) *secfile.Schema {
	if schema2.IsMagic(head) {
		return schema2
	}
	return schema
}

// OpenMode selects how Open gets the file's bytes.
type OpenMode = secfile.OpenMode

const (
	// ModeAuto maps the file when the platform supports it and falls
	// back to a buffered read.
	ModeAuto = secfile.ModeAuto
	// ModeMmap requires the zero-copy mapping; Open fails where mmap
	// is unavailable.
	ModeMmap = secfile.ModeMmap
	// ModeBuffered always reads the file into memory.
	ModeBuffered = secfile.ModeBuffered
)

// OpenOptions tunes Open and Read.
type OpenOptions struct {
	// Mode selects mmap vs buffered read (Open only, ignored when Mem
	// is set).
	Mode OpenMode
	// NoVerify skips the per-section checksum verification. The
	// default (verify) reads every page once at open; skipping it
	// makes open O(offsets) at the cost of deferring corruption
	// detection to first use.
	NoVerify bool
	// Validate additionally runs the full O(E) graph.Validate pass
	// after decoding. Off by default: the checksums already pin the
	// bytes to what the writer produced, and the writer only ever
	// serializes well-formed graphs.
	Validate bool
	// Mem, when > 0, opens the file paged (Open only): the offset
	// arrays (and perm, for FWGSTOR2) stay resident, while the
	// adjacency is served from a page cache whose resident set is
	// bounded by about Mem bytes — the bigger-than-RAM path. See
	// paged.go.
	Mem int64
}

func (o OpenOptions) codec() secfile.OpenOptions {
	return secfile.OpenOptions{Mode: o.Mode, NoVerify: o.NoVerify}
}

// Write serializes g to w in the gstore format: FWGSTOR1 for plain
// graphs (byte-identical to previous releases), FWGSTOR2 when the
// graph carries a row permutation (see Relabel). Paged graphs cannot
// be serialized — their adjacency is not resident.
func Write(w io.Writer, g *graph.Graph) error {
	if g.Paged() {
		return errors.New("gstore: cannot serialize a paged graph (adjacency is not resident; open the source file instead)")
	}
	c := g.CSRView()
	sc, parts := schema, [][]byte{
		secfile.Bytes(c.OutOff), secfile.Bytes(c.OutAdj),
		secfile.Bytes(c.InOff), secfile.Bytes(c.InAdj),
	}
	if c.Perm != nil {
		sc = schema2
		parts = append(parts, secfile.Bytes(c.Perm))
	}
	hdr := sc.NewHeader()
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(c.NumVertices))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(c.OutAdj)))
	return sc.Write(w, hdr, parts)
}

// Save writes g to path atomically: the bytes land in a temp file in
// the same directory which is fsync'd and renamed over path, so
// readers never see a half-written graph and a crash never corrupts
// an existing cache.
func Save(path string, g *graph.Graph) error {
	return secfile.SaveAtomic(path, func(w io.Writer) error { return Write(w, g) })
}

// fromFile builds a Graph over a parsed section file. The graph's
// arrays alias f.Data (zero-copy) whenever alignment allows; f owns
// the backing storage and is released by the graph's Close (or here,
// on error).
func fromFile(f *secfile.File, opts OpenOptions) (*graph.Graph, error) {
	n, m := headerCounts(f.Header())
	c := graph.CSR{
		NumVertices: int(n),
		OutOff:      secfile.View[int64](f.Data, f.Secs[0].Off, int(n)+1),
		OutAdj:      secfile.View[graph.VertexID](f.Data, f.Secs[1].Off, int(m)),
		InOff:       secfile.View[int64](f.Data, f.Secs[2].Off, int(n)+1),
		InAdj:       secfile.View[graph.VertexID](f.Data, f.Secs[3].Off, int(m)),
	}
	if len(f.Secs) == numSections2 {
		c.Perm = secfile.View[graph.VertexID](f.Data, f.Secs[4].Off, int(n))
	}
	g, err := graph.FromCSR(c, f) // FromCSR closes f on error
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if opts.Validate {
		if err := g.Validate(); err != nil {
			g.Close()
			return nil, fmt.Errorf("%w: %v", ErrFormat, err)
		}
	}
	return g, nil
}

// Decode builds a Graph over data, which must hold a complete gstore
// file. The returned graph's arrays alias data (zero-copy) whenever
// alignment allows; backing, when non-nil, owns data's memory and is
// released by the graph's Close. Decode never panics on corrupt input:
// every section is bounds-checked against the canonical layout before
// it is touched, checksums are verified (unless opts.NoVerify), and
// the offset arrays are structurally validated by graph.FromCSR.
func Decode(data []byte, backing io.Closer, opts OpenOptions) (*graph.Graph, error) {
	f, err := schemaFor(data).Decode(data, backing, opts.codec())
	if err != nil {
		return nil, err
	}
	return fromFile(f, opts)
}

// Open opens a gstore file of either version, zero-copy via mmap when
// the platform allows (the adjacency slices alias the file pages;
// Close unmaps them), falling back to a buffered read under ModeAuto.
// With opts.Mem set it opens paged instead: see OpenOptions.Mem.
func Open(path string, opts OpenOptions) (*graph.Graph, error) {
	if opts.Mem > 0 {
		return openPaged(path, opts)
	}
	head, err := readHead(path)
	if err != nil {
		return nil, err
	}
	f, err := schemaFor(head).Open(path, opts.codec())
	if err != nil {
		return nil, err
	}
	return fromFile(f, opts)
}

// readHead reads the first 8 bytes of path for version dispatch.
func readHead(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, 8)
	if n, err := io.ReadFull(f, head); err != nil {
		return nil, fmt.Errorf("%w: %w: %s is %d bytes", ErrFormat, secfile.ErrFormat, path, n)
	}
	return head, nil
}

// Read decodes a gstore stream (the buffered path gio uses for
// gzip-compressed gstore files). The header is read first so the exact
// remaining size is known; the buffer then grows geometrically toward
// it, so a hostile header claiming a huge graph fails at the stream's
// real end instead of forcing one giant allocation up front.
func Read(r io.Reader, opts OpenOptions) (*graph.Graph, error) {
	head := make([]byte, 8)
	if n, err := io.ReadFull(r, head); err != nil {
		head = head[:n] // let the v1 schema produce its usual error
	}
	f, err := schemaFor(head).Read(io.MultiReader(bytes.NewReader(head), r), opts.codec())
	if err != nil {
		return nil, err
	}
	return fromFile(f, opts)
}
