package pagerank

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func TestExactUniformOnComplete(t *testing.T) {
	g := gen.Complete(8)
	r, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatal("did not converge")
	}
	for v, p := range r.Rank {
		if math.Abs(p-0.125) > 1e-9 {
			t.Errorf("vertex %d: rank %v, want 0.125", v, p)
		}
	}
}

func TestExactUniformOnCycle(t *testing.T) {
	g := gen.Cycle(10)
	r, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range r.Rank {
		if math.Abs(p-0.1) > 1e-9 {
			t.Errorf("vertex %d: rank %v, want 0.1", v, p)
		}
	}
}

func TestExactSumsToOne(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(r.Rank, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestExactStarHubDominates(t *testing.T) {
	g := gen.Star(50)
	r, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hub := r.Rank[0]
	for v := 1; v < 50; v++ {
		if r.Rank[v] >= hub {
			t.Fatalf("leaf %d rank %v >= hub %v", v, r.Rank[v], hub)
		}
	}
	// Known closed form: hub gets pT/n + (1-pT)·(1-hub) since every
	// leaf sends all its mass to the hub. Solve: hub ≈ (pT/n + (1-pT)·(1-?))...
	// Just check it is large.
	if hub < 0.4 {
		t.Errorf("hub rank %v suspiciously small", hub)
	}
}

func TestFixedPointProperty(t *testing.T) {
	// π must satisfy π = Qπ: applying one more power-iteration step
	// must not change it.
	g, err := gen.PowerLaw(gen.LiveJournalLike(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Exact(g, Options{Tolerance: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	pT := DefaultTeleport
	next := make([]float64, n)
	adj := g.NewAdjReader()
	for v := 0; v < n; v++ {
		share := r.Rank[v] / float64(g.OutDegree(uint32(v)))
		for _, d := range adj.OutNeighbors(uint32(v)) {
			next[d] += share
		}
	}
	for v := 0; v < n; v++ {
		want := (1-pT)*next[v] + pT/float64(n)
		if math.Abs(want-r.Rank[v]) > 1e-10 {
			t.Fatalf("fixed point violated at %d: %v vs %v", v, r.Rank[v], want)
		}
	}
}

func TestDanglingHandled(t *testing.T) {
	// 0->1, 1 dangling. Mass must still sum to 1.
	g := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	r, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(r.Rank, 1e-9); err != nil {
		t.Fatal(err)
	}
	if r.Rank[1] <= r.Rank[0] {
		t.Error("vertex 1 receives all of 0's mass and should rank higher")
	}
}

func TestTeleportOneIsUniform(t *testing.T) {
	g := gen.Star(20)
	r, err := Exact(g, Options{Teleport: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Rank {
		if math.Abs(p-0.05) > 1e-12 {
			t.Fatalf("pT=1 should give uniform, got %v", p)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Exact(g, Options{Teleport: 1.5}); err == nil {
		t.Error("teleport > 1 should error")
	}
	if _, err := Exact(g, Options{Teleport: -0.1}); err == nil {
		t.Error("teleport < 0 should error")
	}
	empty, _ := graph.NewBuilder(0).Build()
	if _, err := Exact(empty, Options{}); err == nil {
		t.Error("empty graph should error")
	}
	if _, err := Iterate(g, -1, 0.15); err == nil {
		t.Error("negative iterations should error")
	}
}

func TestIterateApproaches(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1 := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8, 16} {
		it, err := Iterate(g, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if it.Iterations != k {
			t.Fatalf("Iterate(%d) ran %d iterations", k, it.Iterations)
		}
		d := l1(it.Rank, exact.Rank)
		if d > prev+1e-12 {
			t.Fatalf("iterate %d moved away from exact: %v > %v", k, d, prev)
		}
		prev = d
	}
	if prev > 1e-2 {
		t.Errorf("16 iterations still %v away in L1", prev)
	}
}

func TestIterateZero(t *testing.T) {
	g := gen.Star(10)
	r, err := Iterate(g, 0, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Rank {
		if math.Abs(p-0.1) > 1e-12 {
			t.Fatal("zero iterations should return uniform")
		}
	}
}

func TestValidateRejects(t *testing.T) {
	if err := Validate([]float64{0.5, 0.6}, 1e-9); err == nil {
		t.Error("sum != 1 should fail")
	}
	if err := Validate([]float64{1.5, -0.5}, 1e-9); err == nil {
		t.Error("negative entry should fail")
	}
	if err := Validate([]float64{math.NaN(), 1}, 1e-9); err == nil {
		t.Error("NaN should fail")
	}
	if err := Validate([]float64{0.25, 0.25, 0.25, 0.25}, 1e-9); err != nil {
		t.Errorf("valid distribution rejected: %v", err)
	}
}

func TestExactParallelBitIdentical(t *testing.T) {
	// The parallel inner loop promises bit-identical results for every
	// worker count: fixed chunk boundaries, fixed per-destination
	// accumulation order, partial sums reduced in chunk index order.
	graphs := map[string]*graph.Graph{
		"star":  gen.Star(300),
		"cycle": gen.Cycle(100),
	}
	if g, err := gen.PowerLaw(gen.TwitterLike(3000, 17)); err == nil {
		graphs["twitterlike"] = g
	} else {
		t.Fatal(err)
	}
	graphs["dangling"] = graph.FromEdges(40, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}}) // vertices 4..39 are dangling
	exact := func(g *graph.Graph, procs int) (*Result, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Exact(g, Options{Tolerance: 1e-13})
	}
	for name, g := range graphs {
		ref, err := exact(g, 1)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := exact(g, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got.Iterations != ref.Iterations || got.Residual != ref.Residual || got.Converged != ref.Converged {
				t.Errorf("%s workers=%d: diagnostics (%d,%v,%v) != serial (%d,%v,%v)",
					name, workers, got.Iterations, got.Residual, got.Converged,
					ref.Iterations, ref.Residual, ref.Converged)
			}
			for v := range ref.Rank {
				if got.Rank[v] != ref.Rank[v] {
					t.Fatalf("%s workers=%d: rank[%d] = %v != serial %v (not bit-identical)",
						name, workers, v, got.Rank[v], ref.Rank[v])
				}
			}
		}
	}
}

func BenchmarkExact100k(b *testing.B) {
	g, err := gen.PowerLaw(gen.LiveJournalLike(100000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(g, Options{Tolerance: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}
