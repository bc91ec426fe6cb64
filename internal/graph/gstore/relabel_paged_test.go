package gstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/pcache"
)

// logicalEqual validates got and compares it with want through
// readers — the external view a relabeled or paged graph must preserve
// exactly.
func logicalEqual(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			want.NumVertices(), want.NumEdges(), got.NumVertices(), got.NumEdges())
	}
	wr, gr := want.NewAdjReader(), got.NewAdjReader()
	defer wr.Release()
	defer gr.Release()
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		if !reflect.DeepEqual(
			append([]graph.VertexID{}, wr.OutNeighbors(id)...),
			append([]graph.VertexID{}, gr.OutNeighbors(id)...)) {
			t.Fatalf("out-neighbors of %d differ", v)
		}
		if !reflect.DeepEqual(
			append([]graph.VertexID{}, wr.InNeighbors(id)...),
			append([]graph.VertexID{}, gr.InNeighbors(id)...)) {
			t.Fatalf("in-neighbors of %d differ", v)
		}
	}
}

func TestRelabelLogicallyIdentical(t *testing.T) {
	g := testGraph(t, 500)
	rg, err := Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	logicalEqual(t, g, rg)
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows must be degree-sorted: walking rows in order, total degree
	// never increases.
	c := rg.CSRView()
	if c.Perm == nil {
		t.Fatal("relabeled graph has no permutation")
	}
	rowDeg := make([]int64, rg.NumVertices())
	for v, row := range c.Perm {
		rowDeg[row] = (c.OutOff[row+1] - c.OutOff[row]) + (c.InOff[row+1] - c.InOff[row])
		if want := int64(g.OutDegree(graph.VertexID(v)) + g.InDegree(graph.VertexID(v))); rowDeg[row] != want {
			t.Fatalf("row %d degree %d, want %d", row, rowDeg[row], want)
		}
	}
	for r := 1; r < len(rowDeg); r++ {
		if rowDeg[r] > rowDeg[r-1] {
			t.Fatalf("row degrees not descending at %d: %d > %d", r, rowDeg[r], rowDeg[r-1])
		}
	}
}

func TestRelabeledRoundTripAllPaths(t *testing.T) {
	g := testGraph(t, 500)
	rg, err := Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	data := encode(t, rg)
	if string(data[:8]) != Magic2 {
		t.Fatalf("relabeled graph wrote magic %q, want %q", data[:8], Magic2)
	}
	if !schema2.IsMagic(data) {
		t.Fatal("the FWGSTOR2 schema rejects its own magic")
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := Save(path, rg); err != nil {
		t.Fatal(err)
	}

	t.Run("open", func(t *testing.T) {
		got, err := Open(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		logicalEqual(t, g, got)
		if got.CSRView().Perm == nil {
			t.Fatal("permutation lost in round trip")
		}
	})
	t.Run("stream", func(t *testing.T) {
		got, err := Read(bytes.NewReader(data), OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		logicalEqual(t, g, got)
	})
	t.Run("decode", func(t *testing.T) {
		got, err := Decode(append([]byte{}, data...), nil, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		logicalEqual(t, g, got)
	})
}

func TestPagedOpenMatchesResident(t *testing.T) {
	g := testGraph(t, 800)
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		prepare func() *graph.Graph
	}{
		{"plain", func() *graph.Graph { return g }},
		{"relabeled", func() *graph.Graph {
			rg, err := Relabel(g)
			if err != nil {
				t.Fatal(err)
			}
			return rg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".csr")
			if err := Save(path, tc.prepare()); err != nil {
				t.Fatal(err)
			}
			// A tiny budget forces constant eviction; the served view
			// must not change.
			got, err := Open(path, OpenOptions{Mem: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if !got.Paged() {
				t.Fatal("Mem>0 open did not return a paged graph")
			}
			logicalEqual(t, g, got)

			stats, ok := got.PageCacheStats()
			if !ok {
				t.Fatal("paged graph reports no page-cache stats")
			}
			if stats.PageSize != pcache.PageSize {
				t.Fatalf("page size %d, want %d", stats.PageSize, pcache.PageSize)
			}
			if stats.Misses == 0 {
				t.Fatal("full sweep recorded no page misses")
			}
			if stats.ResidentPages > stats.BudgetPages {
				t.Fatalf("resident %d pages over budget %d at rest", stats.ResidentPages, stats.BudgetPages)
			}
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPagedConcurrentReaders(t *testing.T) {
	g := testGraph(t, 600)
	path := filepath.Join(t.TempDir(), "g.csr")
	rg, err := Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(path, rg); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr, r := g.NewAdjReader(), got.NewAdjReader()
			defer r.Release()
			for i := 0; i < 300; i++ {
				v := graph.VertexID((w*131 + i*17) % g.NumVertices())
				want := wr.OutNeighbors(v)
				gotRow := r.OutNeighbors(v)
				if !reflect.DeepEqual(append([]graph.VertexID{}, want...), append([]graph.VertexID{}, gotRow...)) {
					errs <- "row mismatch"
					return
				}
				if len(want) > 0 {
					if x := r.OutAt(v, len(want)-1); x != want[len(want)-1] {
						errs <- "OutAt mismatch"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestPagedGraphCannotBeSerialized(t *testing.T) {
	g := testGraph(t, 100)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path, OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if err := Write(new(bytes.Buffer), got); err == nil {
		t.Fatal("Write serialized a paged graph")
	}
}

func TestPagedOpenCatchesCorruption(t *testing.T) {
	rg, err := Relabel(testGraph(t, 200))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := Save(path, rg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the perm section (the last one).
	c := rg.CSRView()
	secs := schema2.Layout([]uint64{
		uint64(len(c.OutOff)) * 8, uint64(len(c.OutAdj)) * 4,
		uint64(len(c.InOff)) * 8, uint64(len(c.InAdj)) * 4,
		uint64(len(c.Perm)) * 4,
	})
	data[secs[4].Off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, OpenOptions{Mem: 1}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("paged open of corrupt file: %v, want ErrChecksum", err)
	}
	if _, err := Open(path, OpenOptions{}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("resident open of corrupt file: %v, want ErrChecksum", err)
	}
}
