package gstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/secfile"
)

// sectionLayout computes the canonical FWGSTOR1 section geometry for n
// vertices and m edges, for tests that corrupt specific sections.
func sectionLayout(n, m uint64) []secfile.Section {
	return schema.Layout([]uint64{(n + 1) * 8, m * 4, (n + 1) * 8, m * 4})
}

// testGraph builds a small power-law graph with a spread of degrees.
func testGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: n, MeanOutDeg: 6, DegExponent: 2.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// csrEqual compares graphs by their raw arrays — bit-identical
// adjacency, not just isomorphic.
func csrEqual(a, b *graph.Graph) bool {
	x, y := a.CSRView(), b.CSRView()
	return x.NumVertices == y.NumVertices &&
		reflect.DeepEqual(append([]int64{}, x.OutOff...), append([]int64{}, y.OutOff...)) &&
		reflect.DeepEqual(append([]graph.VertexID{}, x.OutAdj...), append([]graph.VertexID{}, y.OutAdj...)) &&
		reflect.DeepEqual(append([]int64{}, x.InOff...), append([]int64{}, y.InOff...)) &&
		reflect.DeepEqual(append([]graph.VertexID{}, x.InAdj...), append([]graph.VertexID{}, y.InAdj...))
}

func encode(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripAllPaths(t *testing.T) {
	g := testGraph(t, 500)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}

	// Open maps the file where it can and reads it otherwise, as it
	// chooses (secfile's TestOpenModes drives both); the stream decodes
	// from the heap.
	t.Run("auto", func(t *testing.T) {
		got, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !csrEqual(g, got) {
			t.Fatal("loaded graph differs from written graph")
		}
		if gs, ws := graph.ComputeStats(got), graph.ComputeStats(g); gs != ws {
			t.Fatalf("stats diverge: %+v vs %+v", gs, ws)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("stream", func(t *testing.T) {
		got, err := Read(bytes.NewReader(encode(t, g)), OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !csrEqual(g, got) {
			t.Fatal("stream-decoded graph differs")
		}
	})
}

func TestRoundTripEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.FromEdges(0, nil)},
		{"no-edges", graph.FromEdges(3, nil)},
		{"self-loops", graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 1, Dst: 0}})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Decode(encodeAligned(t, tc.g), nil, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !csrEqual(tc.g, got) {
				t.Fatal("round trip diverged")
			}
		})
	}
}

// encodeAligned encodes into an 8-aligned buffer, the shape Decode
// sees from Open/Read.
func encodeAligned(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	raw := encode(t, g)
	buf := secfile.AlignedBytes(len(raw))
	copy(buf, raw)
	return buf
}

func TestZeroCopyAliasing(t *testing.T) {
	if !secfile.MmapSupported {
		t.Skip("no mmap on this platform")
	}
	g := testGraph(t, 200)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, OpenOptions{}) // maps: mmap is supported here
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	// A second independent mapping of the same file must expose the
	// same values through the graph API (the slices are views of file
	// pages, not copies; this also exercises reads across the mapping).
	if !csrEqual(g, got) {
		t.Fatal("mmap view differs")
	}
	for v := 0; v < got.NumVertices(); v++ {
		if got.OutDegree(graph.VertexID(v)) != g.OutDegree(graph.VertexID(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestChecksumCatchesBitFlips(t *testing.T) {
	g := testGraph(t, 300)
	raw := encode(t, g)
	// Flip one bit inside each section (past the header) and verify
	// the default open path reports a checksum error. Section content
	// corruption must be caught even though Validate is off for
	// gstore files (that is the whole point of the checksums).
	for _, off := range []int{headerSize + 3, len(raw) / 2, len(raw) - 2} {
		cp := secfile.AlignedBytes(len(raw))
		copy(cp, raw)
		cp[off] ^= 0x10
		if _, err := Decode(cp, nil, OpenOptions{}); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", off, err)
		}
	}
}

func TestCorruptHeaders(t *testing.T) {
	g := testGraph(t, 100)
	raw := encode(t, g)
	mutate := func(f func(b []byte)) []byte {
		cp := secfile.AlignedBytes(len(raw))
		copy(cp, raw)
		f(cp)
		return cp
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrFormat},
		{"bad version", mutate(func(b []byte) { b[8] = 99 }), ErrFormat},
		{"foreign endian", mutate(func(b []byte) { b[12] ^= 1 }), ErrEndian},
		{"huge n", mutate(func(b []byte) { b[16] = 0xff; b[22] = 0xff }), ErrFormat},
		{"section off tampered", mutate(func(b []byte) { b[tableOffset] ^= 0x40 }), ErrFormat},
		{"section len tampered", mutate(func(b []byte) { b[tableOffset+8] ^= 0x40 }), ErrFormat},
		{"short", secfile.AlignedBytes(headerSize - 1), ErrFormat},
		{"truncated body", mutate(func(b []byte) {})[:headerSize+8], ErrFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data, nil, OpenOptions{}); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeReleasesBackingOnError(t *testing.T) {
	g := testGraph(t, 50)
	raw := encodeAligned(t, g)
	raw[0] = 'X'
	closed := false
	_, err := Decode(raw, closerFunc(func() error { closed = true; return nil }), OpenOptions{})
	if err == nil {
		t.Fatal("want error")
	}
	if !closed {
		t.Fatal("backing leaked on decode failure")
	}
}

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

func TestNoVerifySkipsChecksums(t *testing.T) {
	g := testGraph(t, 100)
	raw := encodeAligned(t, g)
	// Corrupt an adjacency byte: NoVerify must not notice (offsets
	// stay structurally valid), proving the checksum pass is what
	// catches content corruption.
	secs := sectionLayout(uint64(g.NumVertices()), uint64(g.NumEdges()))
	raw[secs[1].Off] ^= 0x01
	if _, err := Decode(raw, nil, OpenOptions{NoVerify: true}); err != nil {
		t.Fatalf("NoVerify decode: %v", err)
	}
	if _, err := Decode(raw, nil, OpenOptions{}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("verify decode: %v, want ErrChecksum", err)
	}
}

func TestValidateCatchesCraftedAdjacency(t *testing.T) {
	// A file can carry valid checksums over bad content if it was
	// crafted (not corrupted): write a graph, tamper with an adjacency
	// value, and recompute the section checksum. Only opts.Validate
	// catches this.
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	c := g.CSRView()
	evil := append([]graph.VertexID{}, c.OutAdj...)
	evil[0] = 99 // out of range
	forged, err := graph.FromCSR(graph.CSR{
		NumVertices: c.NumVertices, OutOff: c.OutOff, OutAdj: evil,
		InOff: c.InOff, InAdj: c.InAdj,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeAligned(t, forged)
	got, err := Decode(raw, nil, OpenOptions{})
	if err != nil {
		t.Fatalf("checksums are valid on a forged file, decode should pass: %v", err)
	}
	if err := got.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range adjacency")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.csr"), OpenOptions{}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func TestReadTruncatedStream(t *testing.T) {
	g := testGraph(t, 200)
	raw := encode(t, g)
	for _, cut := range []int{0, 4, headerSize - 1, headerSize + 1, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut]), OpenOptions{}); !errors.Is(err, ErrFormat) {
			t.Fatalf("cut at %d: err = %v, want ErrFormat", cut, err)
		}
	}
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	if err := Save(path, testGraph(t, 50)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different graph; a reader opening concurrently
	// sees one version or the other, never a torn file. Here we just
	// pin that the rename replaced the content and left no temp files.
	g2 := testGraph(t, 80)
	if err := Save(path, g2); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !csrEqual(g2, got) {
		t.Fatal("second save not visible")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}
