package glpr

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func TestMatchesSerialFixedIterations(t *testing.T) {
	// The engine's distributed power iteration must agree with the
	// serial reference rank-for-rank: this is the engine's core
	// correctness check.
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 400, MeanOutDeg: 6, DegExponent: 2.1, PrefExponent: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, machines := range []int{1, 4, 12} {
		for _, iters := range []int{1, 2, 5} {
			dist, err := Run(g, Config{Machines: machines, Iterations: iters, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := pagerank.Iterate(g, iters, 0)
			if err != nil {
				t.Fatal(err)
			}
			for v := range dist.Rank {
				if math.Abs(dist.Rank[v]-serial.Rank[v]) > 1e-9 {
					t.Fatalf("machines=%d iters=%d vertex %d: %v vs serial %v",
						machines, iters, v, dist.Rank[v], serial.Rank[v])
				}
			}
		}
	}
}

func TestExactConverges(t *testing.T) {
	g, err := gen.PowerLaw(gen.LiveJournalLike(500, 4))
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Run(g, Config{Machines: 6, Tolerance: 1e-10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	var l1 float64
	for v := range dist.Rank {
		l1 += math.Abs(dist.Rank[v] - exact.Rank[v])
	}
	if l1 > 1e-7 {
		t.Fatalf("exact-mode L1 distance %v from serial exact", l1)
	}
	if dist.Stats.Supersteps >= 200 {
		t.Error("exact mode did not converge before MaxIterations")
	}
	if topk.NormalizedCapturedMass(exact.Rank, dist.Rank, 100) < 0.9999 {
		t.Error("exact mode should capture essentially all top-100 mass")
	}
}

func TestMoreIterationsMoreAccurate(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, iters := range []int{1, 2, 8} {
		res, err := Run(g, Config{Layout: lay, Iterations: iters, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		acc := topk.NormalizedCapturedMass(exact.Rank, res.Rank, 100)
		if acc < prev-0.02 { // allow tiny non-monotonicity
			t.Fatalf("accuracy degraded with more iterations: %v -> %v at %d", prev, acc, iters)
		}
		prev = acc
	}
	if prev < 0.99 {
		t.Errorf("8 iterations capture %v of top-100 mass, want ≈ 1", prev)
	}
}

func TestNetworkScalesWithIterations(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(600, 6))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(g, Config{Layout: lay, Iterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(g, Config{Layout: lay, Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Net.TotalBytes <= 0 {
		t.Fatal("no network traffic on 8 machines?")
	}
	ratio := float64(r4.Stats.Net.TotalBytes) / float64(r1.Stats.Net.TotalBytes)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4-iteration traffic should be ≈4x 1-iteration, got %vx", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := Run(g, Config{Teleport: 2}); err == nil {
		t.Error("teleport > 1 should error")
	}
}

func TestRankIsDistribution(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{Machines: 4, Iterations: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := pagerank.Validate(res.Rank, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutReuse(t *testing.T) {
	g := gen.Cycle(20)
	lay, err := cluster.NewLayout(g, 3, cluster.Random{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{Layout: lay, Iterations: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout != lay {
		t.Error("layout should be passed through")
	}
}

// TestLazyInCSRAfterFrogWild is the harness's shared-layout pattern: a
// FrogWild run, which never reads in-edges, uses the layout first, and
// GraphLab-PR's engine then builds the in-index. Ranks and every
// network count must equal a run on a fresh layout bit for bit.
func TestLazyInCSRAfterFrogWild(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 1500, MeanOutDeg: 6, DegExponent: 2.1, PrefExponent: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	newLayout := func() *cluster.Layout {
		lay, err := cluster.NewLayout(g, 12, cluster.Random{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		return lay
	}
	shared := newLayout()
	if _, err := frogwild.Run(g, frogwild.Config{Walkers: 2000, Iterations: 4, PS: 0.7, Layout: shared, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, Config{Iterations: 3, Seed: 4, Layout: shared})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, Config{Iterations: 3, Seed: 4, Layout: newLayout()})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Rank, want.Rank) {
		t.Error("ranks on the layout FrogWild used differ from ranks on a fresh layout")
	}
	if got.Stats.Net != want.Stats.Net {
		t.Errorf("network counts on the shared layout %+v, on a fresh one %+v", got.Stats.Net, want.Stats.Net)
	}
}
