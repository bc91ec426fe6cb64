package repro

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/pagerank"
	"repro/internal/parallel"
	"repro/internal/theory"
)

// TestPagedIterationsAllocatePerChunkNotPerVertex pins the exact
// solvers' behaviour on an out-of-core graph — the path /v1/compare
// takes on a -graph-mem server: each iteration reads adjacency through
// a reused graph.AdjReader, so it allocates O(chunks), not a cursor and
// a row copy per vertex, and the result is bit-identical to the
// resident run's.
func TestPagedIterationsAllocatePerChunkNotPerVertex(t *testing.T) {
	const n = 6000
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: n, MeanOutDeg: 6, DegExponent: 2.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, g); err != nil {
		t.Fatal(err)
	}
	pg, err := gstore.Open(path, gstore.OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()

	cases := map[string]func(g *graph.Graph, iters int) []float64{
		"pagerank.Iterate": func(g *graph.Graph, iters int) []float64 {
			res, err := pagerank.Iterate(g, iters, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			return res.Rank
		},
		"frogwild.ExactPPR": func(g *graph.Graph, iters int) []float64 {
			// A tolerance no iterate can meet: exactly iters iterations.
			ppr, err := frogwild.ExactPPR(g, []graph.VertexID{1, 17}, 0.15, 1e-300, iters)
			if err != nil {
				t.Fatal(err)
			}
			return ppr
		},
		"theory.WalkDistribution": func(g *graph.Graph, iters int) []float64 {
			dist, err := theory.WalkDistribution(g, iters, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			return dist
		},
	}
	for name, run := range cases {
		if !reflect.DeepEqual(run(pg, 6), run(g, 6)) {
			t.Errorf("%s: paged result differs from the resident one", name)
		}
		few := testing.AllocsPerRun(2, func() { run(pg, 2) })
		many := testing.AllocsPerRun(2, func() { run(pg, 12) })
		perIter := (many - few) / 10
		// Per chunk: a reader, its cursor, and the row buffer's growth.
		if limit := float64(8 * parallel.NumChunks(n)); perIter > limit {
			t.Errorf("%s: %.0f allocations per iteration on a paged graph of %d vertices, want ≤ %.0f (O(chunks))",
				name, perIter, n, limit)
		}
	}
}
