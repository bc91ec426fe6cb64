package router

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
)

// TestPartitionMatchesFullLayout holds the masters-only partition to
// its definition: shard id owns exactly the vertices a full HDRF layout
// masters on machine id, plus the isolated vertices v with v%shards ==
// id — on a resident graph and on the same graph paged from disk, for
// the shard counts the byte-identity suite uses.
func TestPartitionMatchesFullLayout(t *testing.T) {
	// Sparse enough that some vertices have no edge at all.
	const n = 1200
	r := rand.New(rand.NewSource(5))
	es := make([]graph.Edge, 1500)
	for i := range es {
		es[i] = graph.Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	resident := graph.FromEdges(n, es)
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, resident); err != nil {
		t.Fatal(err)
	}
	paged, err := gstore.Open(path, gstore.OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	if !paged.Paged() {
		t.Fatal("open with a memory budget did not page")
	}

	for _, open := range []struct {
		name string
		g    *graph.Graph
	}{{"resident", resident}, {"paged", paged}} {
		for _, shards := range []int{1, 2, 4, 7} {
			lay, err := cluster.NewLayout(open.g, shards, cluster.HDRF{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			isolated := 0
			want := make([][]uint32, shards)
			for id := range want {
				want[id] = slices.Clone(lay.View(id).Masters())
			}
			for v := 0; v < n; v++ {
				if len(lay.Presences(graph.VertexID(v))) == 0 {
					want[v%shards] = append(want[v%shards], uint32(v))
					isolated++
				}
			}
			if isolated == 0 {
				t.Fatal("test graph has no isolated vertex")
			}
			got, err := Partition(open.g, shards, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != shards {
				t.Fatalf("%s shards=%d: Partition returned %d sets", open.name, shards, len(got))
			}
			for id := range want {
				slices.Sort(want[id])
				if !slices.Equal(got[id], want[id]) {
					t.Fatalf("%s shards=%d: Partition[%d] differs from the layout's masters + round-robin isolated", open.name, shards, id)
				}
				one, err := OwnedVertices(open.g, shards, id, 7)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(one, want[id]) {
					t.Fatalf("%s shards=%d: OwnedVertices(%d) differs from Partition[%d]", open.name, shards, id, id)
				}
			}
		}
	}
}

func TestPartitionRejectsBadArguments(t *testing.T) {
	g := testGraph(t)
	if _, err := Partition(g, 0, 1); err == nil {
		t.Error("0 shards should error")
	}
	for _, id := range []int{-1, 4} {
		if _, err := OwnedVertices(g, 4, id, 1); err == nil {
			t.Errorf("shard id %d of 4 should error", id)
		}
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
