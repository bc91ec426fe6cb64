package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/powerlaw-digests.golden from the current generator")

// csrDigest hashes a graph's CSR arrays: vertex count, out offsets and
// adjacency, in offsets and adjacency.
func csrDigest(g *graph.Graph) string {
	c := g.CSRView()
	var b []byte
	u64 := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	offs := func(xs []int64) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(uint64(x))
		}
	}
	adj := func(xs []graph.VertexID) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, x)
		}
	}
	u64(uint64(c.NumVertices))
	offs(c.OutOff)
	adj(c.OutAdj)
	offs(c.InOff)
	adj(c.InAdj)
	h := sha256.Sum256(b)
	return fmt.Sprintf("%x", h[:])
}

// TestPowerLawGolden holds TwitterLike(50 000, 1) — the benchmark's
// reference graph, 1 377 303 edges — and LiveJournalLike(50 000, 1) to
// edge counts and CSR digests generated before PowerLaw's per-vertex
// duplicate check moved from a map to a stamp array: both must draw the
// same samples in the same order.
func TestPowerLawGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two 50 000-vertex graphs")
	}
	var sb strings.Builder
	for _, c := range []struct {
		name string
		cfg  PowerLawConfig
	}{
		{"twitterlike/50000/1", TwitterLike(50000, 1)},
		{"livejournallike/50000/1", LiveJournalLike(50000, 1)},
	} {
		g, err := PowerLaw(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s m=%d csr=%s\n", c.name, g.NumEdges(), csrDigest(g))
	}
	got := sb.String()
	path := filepath.Join("testdata", "powerlaw-digests.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("PowerLaw digests differ\n got:\n%s\nwant:\n%s", got, want)
	}
}
