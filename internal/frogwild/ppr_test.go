package frogwild

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func TestExactPPRIsDistribution(t *testing.T) {
	g := powerLaw(t, 500, 21)
	pi, err := ExactPPR(g, []graph.VertexID{0, 1, 2}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		if p < 0 {
			t.Fatal("negative PPR entry")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PPR sums to %v", sum)
	}
}

func TestExactPPRConcentratesNearSource(t *testing.T) {
	// On a long directed cycle, PPR from vertex 0 decays geometrically
	// with distance: pi(i) = pT (1-pT)^i / normalization.
	const n = 50
	es := make([]graph.Edge, n)
	for v := 0; v < n; v++ {
		es[v] = graph.Edge{Src: uint32(v), Dst: uint32((v + 1) % n)}
	}
	g := graph.FromEdges(n, es)
	pi, err := ExactPPR(g, []graph.VertexID{0}, 0.15, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		ratio := pi[i] / pi[i-1]
		if math.Abs(ratio-0.85) > 1e-6 {
			t.Fatalf("decay ratio at %d = %v, want 0.85", i, ratio)
		}
	}
	if pi[0] <= pi[n-1] {
		t.Error("source should dominate the farthest vertex")
	}
}

func TestExactPPRValidation(t *testing.T) {
	g := powerLaw(t, 50, 22)
	if _, err := ExactPPR(g, nil, 0, 0, 0); err == nil {
		t.Error("empty source set should error")
	}
	if _, err := ExactPPR(g, []graph.VertexID{9999}, 0, 0, 0); err == nil {
		t.Error("out-of-range source should error")
	}
	if _, err := ExactPPR(g, []graph.VertexID{0}, 2, 0, 0); err == nil {
		t.Error("bad teleport should error")
	}
}

func TestRunPPRMatchesExact(t *testing.T) {
	g := powerLaw(t, 800, 23)
	sources := []graph.VertexID{5, 77, 123}
	exact, err := ExactPPR(g, sources, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPPR(g, PPRConfig{
		Config:  Config{Walkers: 40000, Iterations: 10, PS: 1, Machines: 8, Seed: 31},
		Sources: sources,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrogs != 40000 {
		t.Fatalf("PPR lost frogs: %d", res.TotalFrogs)
	}
	acc := topk.NormalizedCapturedMass(exact, res.Estimate, 20)
	if acc < 0.85 {
		t.Errorf("PPR captured mass %.3f, want ≥ 0.85", acc)
	}
}

func TestRunPPRPartialSync(t *testing.T) {
	g := powerLaw(t, 600, 24)
	sources := []graph.VertexID{1}
	exact, err := ExactPPR(g, sources, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPPR(g, PPRConfig{
		Config:  Config{Walkers: 30000, Iterations: 10, PS: 0.4, Machines: 12, Seed: 5},
		Sources: sources,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := topk.NormalizedCapturedMass(exact, res.Estimate, 20)
	if acc < 0.75 {
		t.Errorf("PPR with ps=0.4 captured %.3f", acc)
	}
}

func TestRunPPRValidation(t *testing.T) {
	g := powerLaw(t, 50, 25)
	if _, err := RunPPR(g, PPRConfig{Config: Config{Walkers: 10, Iterations: 2}}); err == nil {
		t.Error("no sources should error")
	}
	if _, err := RunPPR(g, PPRConfig{
		Config: Config{Walkers: 10, Iterations: 2}, Sources: []graph.VertexID{9999},
	}); err == nil {
		t.Error("out-of-range source should error")
	}
	if _, err := RunPPR(nil, PPRConfig{Sources: []graph.VertexID{0}}); err == nil {
		t.Error("nil graph should error")
	}
}

func TestPPRDiffersFromGlobal(t *testing.T) {
	// The personalized ranking from a low-importance source must
	// differ from the global ranking: vertices near the source gain.
	g := powerLaw(t, 1000, 26)
	// Pick a source with small global rank but existing out-edges.
	src := graph.VertexID(999)
	global, err := ExactPPR(g, allVertices(g), 0, 0, 0) // uniform restart = global PR
	if err != nil {
		t.Fatal(err)
	}
	personal, err := ExactPPR(g, []graph.VertexID{src}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if personal[src] <= global[src] {
		t.Error("source should gain rank under personalization")
	}
}

func allVertices(g *graph.Graph) []graph.VertexID {
	vs := make([]graph.VertexID, g.NumVertices())
	for v := range vs {
		vs[v] = graph.VertexID(v)
	}
	return vs
}

func TestExactPPRUniformSourceEqualsGlobalPR(t *testing.T) {
	// PPR with the uniform restart distribution is exactly global
	// PageRank: cross-check the two solvers against each other.
	g := powerLaw(t, 400, 27)
	ppr, err := ExactPPR(g, allVertices(g), 0, 1e-14, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exactGlobal(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range ppr {
		if math.Abs(ppr[v]-res[v]) > 1e-9 {
			t.Fatalf("PPR(uniform) != PageRank at %d: %v vs %v", v, ppr[v], res[v])
		}
	}
}

func exactGlobal(g *graph.Graph) ([]float64, error) {
	r, err := pagerank.Exact(g, pagerank.Options{Tolerance: 1e-14})
	if err != nil {
		return nil, err
	}
	return r.Rank, nil
}

func TestRunPPRCapturesMass(t *testing.T) {
	g, err := gen.PowerLaw(gen.LiveJournalLike(1500, 11))
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.VertexID{3, 14}
	exact, err := ExactPPR(g, sources, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPPR(g, PPRConfig{
		Config:  Config{Walkers: 20000, Iterations: 8, PS: 0.7, Machines: 8, Seed: 2},
		Sources: sources,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := topk.NormalizedCapturedMass(exact, res.Estimate, 20); acc < 0.75 {
		t.Errorf("PPR captured mass %.3f, want >= 0.75", acc)
	}
}
