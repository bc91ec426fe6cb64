package router

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
)

// TestPartitionIsStride holds the partition to its definition: shard id
// owns exactly the vertices v with v % shards == id, ascending, so the
// sets are disjoint and cover the vertex space — for the shard counts
// the byte-identity suite uses and a vertex count none of them divides.
// OwnedVertices, which bench/ still calls, must list the same set.
func TestPartitionIsStride(t *testing.T) {
	const n = 1201
	g := graph.FromEdges(n, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1200, Dst: 3}})
	for _, shards := range []int{1, 2, 4, 7} {
		owner := make([]int, n)
		for v := range owner {
			owner[v] = -1
		}
		for id := 0; id < shards; id++ {
			set := Stride(n, shards, id)
			if !slices.IsSorted(set) {
				t.Fatalf("shards=%d: set %d is not ascending", shards, id)
			}
			for _, v := range set {
				if int(v) >= n {
					t.Fatalf("shards=%d: set %d holds vertex %d of %d", shards, id, v, n)
				}
				if owner[v] != -1 {
					t.Fatalf("shards=%d: vertex %d in sets %d and %d", shards, v, owner[v], id)
				}
				owner[v] = id
			}
			one, err := OwnedVertices(g, shards, id, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(one, set) {
				t.Fatalf("shards=%d: OwnedVertices(%d) differs from Stride", shards, id)
			}
		}
		for v, id := range owner {
			if id != v%shards {
				t.Fatalf("shards=%d: vertex %d owned by %d, want %d", shards, v, id, v%shards)
			}
		}
	}
}

// TestPartitionReadsNoEdge opens a graph paged under a one-byte budget
// and checks OwnedVertices touches none of its pages: ownership is
// computed from the vertex count alone.
func TestPartitionReadsNoEdge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	g, err := gstore.Open(path, gstore.OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	before, paged := g.PageCacheStats()
	if !paged {
		t.Fatal("open with a memory budget did not page")
	}
	for id := 0; id < 4; id++ {
		if _, err := OwnedVertices(g, 4, id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if after, _ := g.PageCacheStats(); after != before {
		t.Fatalf("partition read the graph: page cache %+v, was %+v", after, before)
	}
}

func TestPartitionRejectsBadArguments(t *testing.T) {
	g := testGraph(t)
	for _, id := range []int{-1, 4} {
		if _, err := OwnedVertices(g, 4, id, 0); err == nil {
			t.Errorf("shard id %d of 4 should error", id)
		}
	}
	if _, err := OwnedVertices(g, 0, 0, 0); err == nil {
		t.Error("0 shards should error")
	}
}

// BenchmarkOwnedVertices times what one prshard process pays to learn
// its vertex set on the graph the repo benchmark serves; it lines up
// with router.owned_vertices_s in the bench/ ledger.
func BenchmarkOwnedVertices(b *testing.B) {
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OwnedVertices(g, 4, i%4, 1); err != nil {
			b.Fatal(err)
		}
	}
}
