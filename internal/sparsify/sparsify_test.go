package sparsify

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func TestUniformKeepsFraction(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 2000, MeanOutDeg: 10, DegExponent: 2.1, PrefExponent: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Uniform(g, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(sg.NumEdges()) / float64(g.NumEdges())
	if frac < 0.45 || frac > 0.60 {
		t.Errorf("kept fraction %v, want ≈ 0.5 (plus repairs)", frac)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformNoDangling(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 500, MeanOutDeg: 3, DegExponent: 2.3, PrefExponent: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Uniform(g, 0.1, 3) // aggressive: most vertices lose all edges
	if err != nil {
		t.Fatal(err)
	}
	if s := graph.ComputeStats(sg); s.Dangling != 0 {
		t.Errorf("%d dangling vertices after sparsify, repair failed", s.Dangling)
	}
}

func TestUniformQ1Identity(t *testing.T) {
	g := gen.Cycle(20)
	sg, err := Uniform(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumEdges() != g.NumEdges() {
		t.Errorf("q=1 should keep all edges: %d vs %d", sg.NumEdges(), g.NumEdges())
	}
}

func TestUniformSubsetOfOriginal(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 300, MeanOutDeg: 6, DegExponent: 2.0, PrefExponent: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Uniform(g, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	orig := map[uint64]bool{}
	g.Edges(func(e graph.Edge) bool {
		orig[uint64(e.Src)<<32|uint64(e.Dst)] = true
		return true
	})
	sg.Edges(func(e graph.Edge) bool {
		if !orig[uint64(e.Src)<<32|uint64(e.Dst)] {
			t.Fatalf("sparsified graph invented edge %v", e)
		}
		return true
	})

	// The same graph opened paged (a one-byte budget: every row goes
	// through the reader's cursor) keeps the same edges at the same seed.
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, g); err != nil {
		t.Fatal(err)
	}
	pg, err := gstore.Open(path, gstore.OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	psg, err := Uniform(pg, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges := func(g *graph.Graph) (list []graph.Edge) {
		g.Edges(func(e graph.Edge) bool { list = append(list, e); return true })
		return list
	}
	if !reflect.DeepEqual(edges(sg), edges(psg)) {
		t.Fatal("paged input kept different edges than the resident one")
	}
}

func TestUniformErrors(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Uniform(nil, 0.5, 1); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := Uniform(g, 0, 1); err == nil {
		t.Error("q=0 should error")
	}
	if _, err := Uniform(g, 1.5, 1); err == nil {
		t.Error("q>1 should error")
	}
}

func TestRunBaselineAccuracy(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(1500, 5))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{Keep: 0.7, Iterations: 2, Machines: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc := topk.NormalizedCapturedMass(exact.Rank, res.Rank, 100)
	// The paper's Fig 5: accuracy stays comparable (>0.9) at q = 0.7.
	if acc < 0.85 {
		t.Errorf("sparsified 2-iteration accuracy %.3f, want ≥ 0.85", acc)
	}
	if res.KeptEdges >= g.NumEdges() {
		t.Error("sparsified graph should be smaller")
	}
	if res.Stats.Supersteps != 2 {
		t.Errorf("ran %d supersteps, want 2", res.Stats.Supersteps)
	}
}

func TestRunValidation(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Run(g, Config{Keep: 0.5, Iterations: 0}); err == nil {
		t.Error("zero iterations should error")
	}
}
