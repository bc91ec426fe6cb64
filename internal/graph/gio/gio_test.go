package gio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment line
% another comment
0 1
1 2
2 0

0 2
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 4 {
		t.Errorf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListRemap(t *testing.T) {
	// Sparse original ids must be densified in first-seen order.
	in := "1000 7\n7 999999\n999999 1000\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3", g.NumVertices())
	}
	// 1000->0, 7->1, 999999->2
	r := g.NewAdjReader()
	if r.OutNeighbors(0)[0] != 1 || r.OutNeighbors(1)[0] != 2 || r.OutNeighbors(2)[0] != 0 {
		t.Error("remapping order wrong")
	}
}

func TestReadEdgeListTabs(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0\t1\n1\t0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("m = %d", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("single-field line should error")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("non-numeric should error")
	}
	if _, err := ReadEdgeList(strings.NewReader("0 -1\n")); err == nil {
		t.Error("negative id should error")
	}
}

func TestReadEdgeListDangling(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n")) // vertex 1 dangling
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(1) != 1 {
		t.Error("self-loop repair failed")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 300, MeanOutDeg: 5, DegExponent: 2.1, PrefExponent: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestFileRoundTripGzip(t *testing.T) {
	g := gen.Cycle(50)
	elPath := filepath.Join(t.TempDir(), "g.txt.gz")
	if err := SaveEdgeList(elPath, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(elPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 50 {
		t.Errorf("gz edge list round trip: m = %d", g2.NumEdges())
	}
}

// TestLoadAutoDetect is the whole sniff in one table: what each kind of
// file loads as (or is refused with), and that under a -graph-mem budget
// everything but an uncompressed gstore file is refused with one message.
func TestLoadAutoDetect(t *testing.T) {
	star := gen.Star(10)
	relabeled, err := gstore.Relabel(star)
	if err != nil {
		t.Fatal(err)
	}
	raw := func(b []byte) func(string) error {
		return func(path string) error {
			wc, err := openWriter(path)
			if err != nil {
				return err
			}
			if _, err := wc.Write(b); err != nil {
				return err
			}
			return wc.Close()
		}
	}
	text := func(p string) error { return SaveEdgeList(p, star) }
	csr := func(g *graph.Graph) func(string) error {
		return func(p string) error { return SaveCSR(p, g) }
	}
	// A well-formed FWG1 file (magic, n, m, no edges), and a gstore
	// magic with a version digit gstore does not know.
	legacy := append([]byte("FWG1"), make([]byte, 16)...)
	future := append([]byte("FWGSTOR9"), make([]byte, 256)...)
	const (
		refused  = "is a FWG1 binary edge list, which is no longer read; regenerate it with gengraph -format csr"
		notStore = "not a gstore CSR graph file"
		noPaging = "-graph-mem budget needs an uncompressed gstore file"
	)
	for _, tc := range []struct {
		file     string
		write    func(path string) error
		n        int // the loaded graph, when wantErr is empty
		m        int64
		wantErr  string // with no budget
		pagedErr string // with a budget; empty means it pages and loads
	}{
		{file: "a.txt", write: text, n: 10, m: star.NumEdges(), pagedErr: noPaging},
		{file: "a.txt.gz", write: text, n: 10, m: star.NumEdges(), pagedErr: noPaging},
		{file: "v1.csr", write: csr(star), n: 10, m: star.NumEdges()},
		{file: "v2.csr", write: csr(relabeled), n: 10, m: star.NumEdges()},
		{file: "a.csr.gz", write: csr(star), n: 10, m: star.NumEdges(), pagedErr: noPaging},
		{file: "v9.csr", write: raw(future), wantErr: notStore, pagedErr: notStore},
		{file: "v9.csr.gz", write: raw(future), wantErr: notStore, pagedErr: noPaging},
		{file: "old.bin", write: raw(legacy), wantErr: refused, pagedErr: noPaging},
		{file: "old.bin.gz", write: raw(legacy), wantErr: refused, pagedErr: noPaging},
		{file: "tiny.txt", write: raw([]byte("0 1")), n: 2, m: 2, pagedErr: noPaging},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.file)
			if err := tc.write(path); err != nil {
				t.Fatal(err)
			}
			for _, leg := range []struct {
				mem     int64
				wantErr string
			}{{0, tc.wantErr}, {1 << 20, tc.pagedErr}} {
				g, err := Load(path, leg.mem)
				if leg.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), leg.wantErr) {
						t.Fatalf("mem %d: err = %v, want %q", leg.mem, err, leg.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("mem %d: %v", leg.mem, err)
				}
				if g.NumVertices() != tc.n || g.NumEdges() != tc.m {
					t.Errorf("mem %d: loaded n=%d m=%d, want %d/%d", leg.mem, g.NumVertices(), g.NumEdges(), tc.n, tc.m)
				}
				if (leg.mem > 0) != g.Paged() {
					t.Errorf("mem %d: Paged() = %v", leg.mem, g.Paged())
				}
				g.Close()
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path/graph.txt", 0); err == nil {
		t.Error("missing file should error")
	}
}
