package gio

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
)

func powerLawGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: n, MeanOutDeg: 6, DegExponent: 2.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSaveCSRLoadAutoDetect pins the contract the CLIs rely on:
// SaveCSR output round-trips bit-identically (raw CSR arrays, not
// just the edge multiset) through the auto-detecting Load path, plain
// and gzipped.
func TestSaveCSRLoadAutoDetect(t *testing.T) {
	g := powerLawGraph(t, 400, 13)
	dir := t.TempDir()
	for _, name := range []string{"g.csr", "g.csr.gz"} {
		path := filepath.Join(dir, name)
		if err := SaveCSR(path, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g2, err := Load(path, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := g.CSRView(), g2.CSRView()
		if a.NumVertices != b.NumVertices ||
			!reflect.DeepEqual(a.OutOff, b.OutOff) || !reflect.DeepEqual(a.OutAdj, b.OutAdj) ||
			!reflect.DeepEqual(a.InOff, b.InOff) || !reflect.DeepEqual(a.InAdj, b.InAdj) {
			t.Fatalf("%s: CSR arrays differ after round trip", name)
		}
		if s1, s2 := graph.ComputeStats(g), graph.ComputeStats(g2); s1 != s2 {
			t.Fatalf("%s: stats differ: %+v vs %+v", name, s1, s2)
		}
		g2.Close()
	}
}

// TestLoadChecksumMismatch: a flipped bit in a gstore section fails the
// load by checksum; Load has no option that skips corruption detection.
func TestLoadChecksumMismatch(t *testing.T) {
	g := powerLawGraph(t, 120, 7)
	dir := t.TempDir()
	csrPath := filepath.Join(dir, "g.csr")
	if err := SaveCSR(csrPath, g); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(csrPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x08
	badPath := filepath.Join(dir, "bad.csr")
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath, 0); !errors.Is(err, gstore.ErrChecksum) {
		t.Fatalf("corrupted gstore load = %v, want ErrChecksum", err)
	}
}

func TestOpenCachedBuildOnMiss(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.csr")
	want := powerLawGraph(t, 300, 21)

	builds := 0
	build := func() (*graph.Graph, error) { builds++; return want, nil }

	g1, err := OpenCached(cache, CacheOptions{}, 0, build)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cache not written: %v", err)
	}

	// Hit: build must not run again, content identical.
	g2, err := OpenCached(cache, CacheOptions{}, 0, func() (*graph.Graph, error) {
		t.Fatal("build called on cache hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	a, b := want.CSRView(), g2.CSRView()
	if !reflect.DeepEqual(a.OutAdj, b.OutAdj) || !reflect.DeepEqual(a.InAdj, b.InAdj) {
		t.Fatal("cache hit returned different graph")
	}

	// Corrupt cache: loud error, no silent rebuild.
	raw, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(cache, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCached(cache, CacheOptions{}, 0, build); err == nil {
		t.Fatal("corrupt cache silently accepted")
	}
	if builds != 1 {
		t.Fatalf("corrupt cache triggered rebuild (builds = %d)", builds)
	}
}

func TestGraphRoundTripTextAndCSRGz(t *testing.T) {
	g, err := gen.ErdosRenyi(500, 2500, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := SaveEdgeList(txt, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(txt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("text round trip changed edge count")
	}
	csr := filepath.Join(dir, "g.csr.gz")
	if err := SaveCSR(csr, g); err != nil {
		t.Fatal(err)
	}
	g3, err := Load(csr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Error("csr.gz round trip changed edge count")
	}
}

// TestGStoreRoundTripBitIdentical: mmap-opening a gstore file yields a
// Graph bit-identical — raw CSR arrays, degrees, stats — to the
// builder-constructed one.
func TestGStoreRoundTripBitIdentical(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(5000, 42))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := gstore.Open(path, gstore.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	a, b := g.CSRView(), got.CSRView()
	if a.NumVertices != b.NumVertices ||
		!reflect.DeepEqual(a.OutOff, b.OutOff) || !reflect.DeepEqual(a.OutAdj, b.OutAdj) ||
		!reflect.DeepEqual(a.InOff, b.InOff) || !reflect.DeepEqual(a.InAdj, b.InAdj) {
		t.Fatal("mmap-opened CSR arrays differ from builder-constructed graph")
	}
	for v := 0; v < g.NumVertices(); v += 97 {
		id := graph.VertexID(v)
		if g.OutDegree(id) != got.OutDegree(id) || g.InDegree(id) != got.InDegree(id) {
			t.Fatalf("degree mismatch at vertex %d", v)
		}
	}
	if s1, s2 := graph.ComputeStats(g), graph.ComputeStats(got); s1 != s2 {
		t.Fatalf("stats diverge:\nbuilder: %+v\nmmap:    %+v", s1, s2)
	}
}

// TestMmapOpenBeatsEdgeListRebuild: on the benchmark-scale graph one
// mmap open (checksums verified) must be >= 10x faster than rebuilding
// from the edge-list file. The observed gap is orders of magnitude (text parsing and the
// counting sort are O(E); the mmap open touches the file once to
// checksum it), so 10x leaves plenty of CI noise headroom.
func TestMmapOpenBeatsEdgeListRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-vertex graph build in -short mode")
	}
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 7))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	edgePath := filepath.Join(dir, "g.txt")
	csrPath := filepath.Join(dir, "g.csr")
	if err := SaveEdgeList(edgePath, g); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSR(csrPath, g); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rebuilt, err := Load(edgePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	rebuildDur := time.Since(start)
	if rebuilt.NumEdges() != g.NumEdges() {
		t.Fatalf("edge-list rebuild lost edges: %d vs %d", rebuilt.NumEdges(), g.NumEdges())
	}

	// Best of three mmap opens: the first may pay cold page-cache
	// costs the rebuild path already amortized by writing the file.
	mmapDur := time.Duration(1<<62 - 1)
	for i := 0; i < 3; i++ {
		start = time.Now()
		opened, err := gstore.Open(csrPath, gstore.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < mmapDur {
			mmapDur = d
		}
		if opened.NumEdges() != g.NumEdges() {
			t.Fatal("mmap open lost edges")
		}
		opened.Close()
	}

	t.Logf("edge-list rebuild: %v, mmap open: %v (%.0fx)",
		rebuildDur, mmapDur, float64(rebuildDur)/float64(mmapDur))
	if rebuildDur < 10*mmapDur {
		t.Fatalf("mmap open %v not >= 10x faster than edge-list rebuild %v", mmapDur, rebuildDur)
	}
}
