package harness_test

// Cross-algorithm integration tests: every estimator in the repository
// is pointed at the same graph and the results are checked against each
// other, pinning the consistency relations a user relies on:
//
//	exact serial PR  ≈  GL PR exact on the engine
//	              ≈  FrogWild with many walkers
//	              ≈  serial Monte Carlo
//	              ≈  analytic walk distribution at large t
//
// plus determinism of the entire pipeline under a fixed seed.

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/glpr"
	"repro/internal/graph/gen"
	"repro/internal/montecarlo"
	"repro/internal/pagerank"
	"repro/internal/sparsify"
	"repro/internal/theory"
	"repro/internal/topk"
)

func TestEndToEndQuickstart(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(3000, 42))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := frogwild.Run(g, frogwild.Config{
		Walkers:    g.NumVertices() / 3,
		Iterations: 4,
		PS:         0.7,
		Machines:   16,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := topk.NormalizedCapturedMass(exact.Rank, res.Estimate, 50)
	if acc < 0.8 {
		t.Errorf("quickstart accuracy %.3f too low", acc)
	}
	top := topk.Top(res.Estimate, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("TopK not sorted")
		}
	}
}

func TestBaselinesRun(t *testing.T) {
	g, err := gen.PowerLaw(gen.LiveJournalLike(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := glpr.Run(g, glpr.Config{Machines: 4, Iterations: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sparsify.Run(g, sparsify.Config{Keep: 0.7, Iterations: 2, Machines: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := montecarlo.Run(g, montecarlo.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	counts, err := frogwild.SerialWalk(g, 1000, 4, pagerank.DefaultTeleport, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Errorf("serial walk total = %d", total)
	}
}

func TestAllEstimatorsAgreeOnTopK(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(4000, 31))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 50

	check := func(name string, est []float64, minMass float64) {
		t.Helper()
		if len(est) != g.NumVertices() {
			t.Fatalf("%s: wrong estimate length", name)
		}
		m := topk.NormalizedCapturedMass(exact.Rank, est, k)
		if m < minMass {
			t.Errorf("%s captured %.4f of top-%d mass, want ≥ %.2f", name, m, k, minMass)
		}
	}

	gl, err := glpr.Run(g, glpr.Config{Machines: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("GL PR exact", gl.Rank, 0.999)

	fw, err := frogwild.Run(g, frogwild.Config{
		Walkers: 80000, Iterations: 8, PS: 1, Machines: 12, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("FrogWild 80k walkers", fw.Estimate, 0.97)

	fwLow, err := frogwild.Run(g, frogwild.Config{
		Walkers: 80000, Iterations: 8, PS: 0.4, Machines: 12, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("FrogWild ps=0.4", fwLow.Estimate, 0.90)

	mc, err := montecarlo.Run(g, montecarlo.Config{WalkersPerVertex: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("serial Monte Carlo", mc.Estimate, 0.95)

	sp, err := sparsify.Run(g, sparsify.Config{Keep: 0.7, Iterations: 2, Machines: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	check("sparsified 2-iter PR", sp.Rank, 0.85)
}

func TestWholePipelineDeterministic(t *testing.T) {
	run := func() (int64, []float64) {
		g, err := gen.PowerLaw(gen.LiveJournalLike(2000, 55))
		if err != nil {
			t.Fatal(err)
		}
		lay, err := cluster.NewLayout(g, 10, nil, 55)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := frogwild.Run(g, frogwild.Config{
			Walkers: 5000, Iterations: 4, PS: 0.4, Layout: lay, Seed: 55,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fw.Stats.Net.TotalBytes, fw.Estimate
	}
	bytesA, estA := run()
	bytesB, estB := run()
	if bytesA != bytesB {
		t.Errorf("network bytes diverged: %d vs %d", bytesA, bytesB)
	}
	for v := range estA {
		if estA[v] != estB[v] {
			t.Fatalf("estimate diverged at vertex %d", v)
		}
	}
}

func TestTheoremBoundCoversObservedError(t *testing.T) {
	// End-to-end Theorem 1 sanity: observed captured-mass deficit must
	// be below the ε bound computed from the run's own parameters.
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 77))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	piMax := 0.0
	for _, p := range exact.Rank {
		piMax = math.Max(piMax, p)
	}
	const (
		k, iters, walkers = 20, 8, 50000
		ps                = 0.7
	)
	eps, err := theory.Epsilon(theory.BoundParams{
		PT: 0.15, T: iters, K: k, Delta: 0.05, N: walkers, PS: ps,
		Intersect: theory.IntersectBound(g.NumVertices(), iters, piMax, 0.15),
	})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := frogwild.Run(g, frogwild.Config{
		Walkers: walkers, Iterations: iters, PS: ps, Machines: 16, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	optimal := topk.CapturedMass(exact.Rank, exact.Rank, k)
	captured := topk.CapturedMass(exact.Rank, fw.Estimate, k)
	if captured < optimal-eps {
		t.Errorf("observed deficit %.4f exceeds Theorem 1 ε = %.4f", optimal-captured, eps)
	}
}

func TestRankingMetricsConsistent(t *testing.T) {
	// Relations between the metrics themselves on a real run: perfect
	// agreement bounds, and exact-identification ≤ precision-at-k.
	g, err := gen.PowerLaw(gen.TwitterLike(2500, 13))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := frogwild.Run(g, frogwild.Config{
		Walkers: 30000, Iterations: 5, PS: 0.7, Machines: 8, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{10, 50, 200} {
		ident := topk.ExactIdentification(exact.Rank, fw.Estimate, k)
		prec := topk.PrecisionAtK(exact.Rank, fw.Estimate, k)
		if prec < ident-1e-12 {
			t.Errorf("k=%d: precision %.4f < identification %.4f", k, prec, ident)
		}
		mass := topk.NormalizedCapturedMass(exact.Rank, fw.Estimate, k)
		if mass < ident-1e-12 {
			// every correctly identified vertex contributes its full
			// mass, so captured mass ≥ identification · (min share),
			// and in particular normalized mass ≥ identification only
			// when the top-k masses are comparable — use the weaker
			// sanity bound: mass > 0 whenever identification > 0.
			if ident > 0 && mass == 0 {
				t.Errorf("k=%d: identification %.4f but zero mass", k, ident)
			}
		}
		tau := topk.KendallTauTopK(exact.Rank, fw.Estimate, k)
		if tau < -1-1e-12 || tau > 1+1e-12 {
			t.Errorf("k=%d: tau %v out of [-1,1]", k, tau)
		}
	}
}
