package theory

import (
	"math"
	"testing"

	"repro/internal/frogwild"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/rng"
	"repro/internal/topk"
)

func rngNew(seed uint64) *rng.Stream          { return rng.New(seed) }
func rngZipf(s float64, lo, hi int) *rng.Zipf { return rng.NewZipf(s, lo, hi) }

func TestIntersectBound(t *testing.T) {
	b := IntersectBound(1000, 10, 0.01, 0.15)
	want := 1.0/1000 + 10*0.01/0.15
	if math.Abs(b-want) > 1e-12 {
		t.Errorf("bound = %v want %v", b, want)
	}
	if IntersectBound(10, 1000, 1, 0.15) != 1 {
		t.Error("bound should clamp to 1")
	}
	if IntersectBound(0, 1, 0.1, 0.15) != 1 {
		t.Error("degenerate n should clamp to 1")
	}
}

func TestIntersectBoundShrinksWithN(t *testing.T) {
	prev := 2.0
	for _, n := range []int{100, 10000, 1000000} {
		piMax := 1 / math.Sqrt(float64(n)) // Proposition 7 regime
		b := IntersectBound(n, 5, piMax, 0.15)
		if b >= prev {
			t.Errorf("bound should shrink with n: %v -> %v at n=%d", prev, b, n)
		}
		prev = b
	}
}

func TestPowerLawMaxBound(t *testing.T) {
	v, fe := PowerLawMaxBound(10000, 2.2, 0.5)
	if math.Abs(v-0.01) > 1e-12 {
		t.Errorf("value bound = %v want 0.01", v)
	}
	// γ - 1/(θ-1) = 0.5 - 1/1.2 = -1/3: vanishing failure probability.
	if math.Abs(fe-(0.5-1/1.2)) > 1e-12 {
		t.Errorf("failure exponent = %v", fe)
	}
	if fe >= 0 {
		t.Error("θ=2.2, γ=0.5 must give vanishing failure probability")
	}
}

func TestEpsilonValidation(t *testing.T) {
	good := BoundParams{PT: 0.15, T: 5, K: 100, Delta: 0.1, N: 10000, PS: 0.7, Intersect: 0.01}
	if _, err := Epsilon(good); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bads := []BoundParams{
		{PT: 0, T: 5, K: 100, Delta: 0.1, N: 1000, PS: 1},
		{PT: 0.15, T: -1, K: 100, Delta: 0.1, N: 1000, PS: 1},
		{PT: 0.15, T: 5, K: 0, Delta: 0.1, N: 1000, PS: 1},
		{PT: 0.15, T: 5, K: 100, Delta: 0, N: 1000, PS: 1},
		{PT: 0.15, T: 5, K: 100, Delta: 0.1, N: 0, PS: 1},
		{PT: 0.15, T: 5, K: 100, Delta: 0.1, N: 1000, PS: 2},
		{PT: 0.15, T: 5, K: 100, Delta: 0.1, N: 1000, PS: 1, Intersect: 2},
	}
	for i, b := range bads {
		if _, err := Epsilon(b); err == nil {
			t.Errorf("case %d should error: %+v", i, b)
		}
	}
}

func TestEpsilonMonotonicity(t *testing.T) {
	base := BoundParams{PT: 0.15, T: 6, K: 100, Delta: 0.1, N: 100000, PS: 1, Intersect: 0.001}
	eps := func(p BoundParams) float64 {
		e, err := Epsilon(p)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0 := eps(base)

	moreWalkers := base
	moreWalkers.N *= 10
	if eps(moreWalkers) >= e0 {
		t.Error("more walkers should shrink the bound")
	}
	moreIters := base
	moreIters.T += 5
	if eps(moreIters) >= e0 {
		t.Error("more iterations should shrink the bound")
	}
	lessSync := base
	lessSync.PS = 0.1
	if eps(lessSync) <= e0 {
		t.Error("less synchronization should grow the bound")
	}
	// ps=1 kills the correlation term entirely: intersection shouldn't
	// matter.
	noCorr := base
	noCorr.Intersect = 0.9
	if math.Abs(eps(noCorr)-e0) > 1e-12 {
		t.Error("at ps=1 the intersection probability must not matter")
	}
}

func TestSufficientIterations(t *testing.T) {
	tIters := SufficientIterations(0.15, 0.05)
	if tIters <= 0 || tIters > 100 {
		t.Fatalf("implausible iteration count %d", tIters)
	}
	// Check the returned t actually achieves the target.
	mixing := math.Sqrt(math.Pow(0.85, float64(tIters+1)) / 0.15)
	if mixing > 0.05 {
		t.Errorf("t=%d gives mixing loss %v > 0.05", tIters, mixing)
	}
	// And t-1 does not (minimality).
	if tIters > 0 {
		prev := math.Sqrt(math.Pow(0.85, float64(tIters)) / 0.15)
		if prev <= 0.05 {
			t.Errorf("t=%d not minimal", tIters)
		}
	}
	if SufficientIterations(0, 0.05) != 0 || SufficientIterations(0.15, 0) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestSufficientWalkers(t *testing.T) {
	n := SufficientWalkers(100, 0.1, 0.1)
	want := int(math.Ceil(100 / (0.1 * 0.01)))
	if n != want {
		t.Errorf("walkers = %d want %d", n, want)
	}
	if SufficientWalkers(0, 0.1, 0.1) != 0 {
		t.Error("k=0 should return 0")
	}
}

// TestBoundHoldsEmpirically runs FrogWild repeatedly and verifies the
// Theorem 1 guarantee µk(π̂N) ≥ µk(π) − ε in at least a 1−δ fraction
// of runs (with slack for the finite trial count).
func TestBoundHoldsEmpirically(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 1000, MeanOutDeg: 8, DegExponent: 2.0, PrefExponent: 1.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	piMax := 0.0
	for _, p := range exact.Rank {
		if p > piMax {
			piMax = p
		}
	}
	const (
		k       = 20
		iters   = 8
		walkers = 20000
		ps      = 0.5
		delta   = 0.2
	)
	pCap := IntersectBound(g.NumVertices(), iters, piMax, 0.15)
	eps, err := Epsilon(BoundParams{PT: 0.15, T: iters, K: k, Delta: delta, N: walkers, PS: ps, Intersect: pCap})
	if err != nil {
		t.Fatal(err)
	}
	optimal := topk.OptimalMass(exact.Rank, k)

	const trials = 10
	failures := 0
	for trial := 0; trial < trials; trial++ {
		res, err := frogwild.Run(g, frogwild.Config{
			Walkers: walkers, Iterations: iters, PS: ps, Machines: 8, Seed: uint64(100 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		captured := topk.CapturedMass(exact.Rank, res.Estimate, k)
		if captured < optimal-eps {
			failures++
		}
	}
	// Theorem 1 allows a δ = 0.2 failure rate; with 10 trials tolerate
	// up to 4 failures before declaring the bound violated.
	if failures > 4 {
		t.Errorf("bound violated in %d/%d runs (ε=%.4f, µk=%.4f)", failures, trials, eps, optimal)
	}
}

func TestFitPowerLawMLERecoversExponent(t *testing.T) {
	// Draw from a bounded Zipf with known exponent and recover it.
	r := rngNew(9)
	z := rngZipf(2.2, 1, 1<<20)
	values := make([]float64, 50000)
	for i := range values {
		values[i] = float64(z.Sample(r))
	}
	xmin, err := TailXMin(values, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if xmin < 2 {
		xmin = 2
	}
	theta, tail, err := FitPowerLawMLE(values, xmin)
	if err != nil {
		t.Fatal(err)
	}
	if tail < 100 {
		t.Fatalf("tail too small: %d", tail)
	}
	if math.Abs(theta-2.2) > 0.25 {
		t.Errorf("MLE θ = %v, want ≈ 2.2", theta)
	}
}

func TestPageRankTailIsPowerLaw(t *testing.T) {
	// Proposition 7's premise: the PageRank values of our synthetic
	// social graphs have a power-law tail with θ in the ballpark the
	// paper cites (≈ 2.2; anything clearly heavy-tailed, θ ∈ [1.5, 3.5],
	// keeps the proposition's conclusion).
	g, err := gen.PowerLaw(gen.TwitterLike(20000, 3))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rescale to avoid xmin <= 0.5 (fit is scale-dependent through
	// xmin only): express values in units of the uniform mass 1/n.
	scaled := make([]float64, len(exact.Rank))
	for i, p := range exact.Rank {
		scaled[i] = p * float64(len(exact.Rank))
	}
	xmin, err := TailXMin(scaled, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	theta, tail, err := FitPowerLawMLE(scaled, xmin)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("PageRank tail: θ = %.3f over %d tail vertices (xmin=%.3f)", theta, tail, xmin)
	if theta < 1.5 || theta > 3.5 {
		t.Errorf("PageRank tail exponent %v outside the heavy-tail regime [1.5, 3.5]", theta)
	}
}

func TestFitPowerLawValidation(t *testing.T) {
	if _, _, err := FitPowerLawMLE([]float64{1, 2, 3}, 0.4); err == nil {
		t.Error("xmin <= 0.5 should error")
	}
	if _, _, err := FitPowerLawMLE([]float64{1, 2, 3}, 100); err == nil {
		t.Error("empty tail should error")
	}
	if _, err := TailXMin(nil, 0.1); err == nil {
		t.Error("empty values should error")
	}
	if _, err := TailXMin([]float64{1}, 1.5); err == nil {
		t.Error("bad quantile should error")
	}
}

func TestEpsilonPositive(t *testing.T) {
	eps, err := Epsilon(BoundParams{
		PT: 0.15, T: 5, K: 100, Delta: 0.1, N: 100000, PS: 0.7,
		Intersect: IntersectBound(1000000, 5, 1e-3, 0.15),
	})
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 || math.IsNaN(eps) {
		t.Errorf("epsilon = %v", eps)
	}
}
