package gstore

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden format files")

// hostLittleEndian reports whether this host writes little-endian
// sections; the checked-in golden files were produced on one.
func hostLittleEndian() bool {
	return binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1
}

// goldenGraph is a fixed graph with a spread of degrees, repeated
// targets, and zero-out-degree vertices; its FWGSTOR1 encoding is
// pinned byte-for-byte by TestGoldenBytes.
func goldenGraph() *graph.Graph {
	const n = 97
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		for j := 0; j < i%5; j++ {
			edges = append(edges, graph.Edge{
				Src: graph.VertexID(i),
				Dst: graph.VertexID((i*31 + j*17 + 7) % n),
			})
		}
	}
	return graph.FromEdges(n, edges)
}

// TestGoldenBytes pins the FWGSTOR1 encoding in both directions: the
// writer must reproduce the checked-in golden file bit-identically for
// the same input, and the golden file (produced by the PR 5 writer)
// must decode to the same graph. Any refactor of the encode/decode
// plumbing must keep this file format-stable.
func TestGoldenBytes(t *testing.T) {
	if !hostLittleEndian() {
		t.Skip("golden files carry little-endian native sections")
	}
	g := goldenGraph()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "fwgstor1-v1.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer output diverged from the golden file (%d vs %d bytes): the FWGSTOR1 encoding must stay bit-identical",
			buf.Len(), len(want))
	}
	got, err := Decode(append([]byte{}, want...), nil, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if !csrEqual(g, got) {
		t.Fatal("golden file decodes to a different graph")
	}
}
