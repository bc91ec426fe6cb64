package topk

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestL1Distance(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{0.25, 0.75}
	if got := L1Distance(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("L1 = %v want 0.5", got)
	}
	if got := L1Distance(a, a); got != 0 {
		t.Errorf("self L1 = %v", got)
	}
}

func TestL1DistancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	L1Distance([]float64{1}, []float64{1, 2})
}

func TestChiSquaredContrast(t *testing.T) {
	u := []float64{0.5, 0.5}
	p := []float64{0.25, 0.75}
	// χ²(u;p) = (0.25)²/0.25 + (0.25)²/0.75 = 0.25 + 1/12
	want := 0.25 + 1.0/12
	if got := ChiSquaredContrast(u, p); math.Abs(got-want) > 1e-12 {
		t.Errorf("chi2 = %v want %v", got, want)
	}
	if got := ChiSquaredContrast(p, p); got != 0 {
		t.Errorf("self chi2 = %v", got)
	}
	if got := ChiSquaredContrast([]float64{0.5, 0.5}, []float64{1, 0}); !math.IsInf(got, 1) {
		t.Errorf("zero-support chi2 = %v, want +Inf", got)
	}
	if got := ChiSquaredContrast([]float64{1, 0}, []float64{1, 0}); got != 0 {
		t.Errorf("matching zero-support chi2 = %v, want 0", got)
	}
}

func TestChiSquaredLemma13Bound(t *testing.T) {
	// Lemma 13: if min_i pi(i) >= c/n then χ²(uniform; pi) <= (1-c)/c.
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(50) + 2
		c := 0.1 + 0.8*r.Float64()
		pi := make([]float64, n)
		sum := 0.0
		for i := range pi {
			pi[i] = c/float64(n) + r.Float64()
			sum += pi[i]
		}
		// Normalize while keeping the floor: scale the excess only.
		excess := sum - c // Σ(pi - c/n) = sum - c
		for i := range pi {
			pi[i] = c/float64(n) + (pi[i]-c/float64(n))*(1-c)/excess
		}
		u := make([]float64, n)
		for i := range u {
			u[i] = 1 / float64(n)
		}
		bound := (1 - c) / c
		if got := ChiSquaredContrast(u, pi); got > bound+1e-9 {
			t.Fatalf("chi2 %v exceeds Lemma 13 bound %v (c=%v n=%d)", got, bound, c, n)
		}
	}
}

func TestKendallTau(t *testing.T) {
	exact := []float64{0.4, 0.3, 0.2, 0.1}
	if got := KendallTauTopK(exact, exact, 4); got != 1 {
		t.Errorf("self tau = %v", got)
	}
	reversed := []float64{0.1, 0.2, 0.3, 0.4}
	if got := KendallTauTopK(exact, reversed, 4); got != -1 {
		t.Errorf("reversed tau = %v", got)
	}
	if got := KendallTauTopK(exact, reversed, 1); got != 1 {
		t.Errorf("k=1 tau = %v, want vacuous 1", got)
	}
}

func TestKendallTauPartial(t *testing.T) {
	exact := []float64{0.4, 0.3, 0.2, 0.1}
	est := []float64{0.4, 0.2, 0.3, 0.1} // swap ranks 2 and 3
	got := KendallTauTopK(exact, est, 4)
	// 6 pairs, 1 discordant: (5-1)/6 = 2/3.
	if math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("tau = %v want 2/3", got)
	}
}

func TestPrecisionAtK(t *testing.T) {
	exact := []float64{0.4, 0.3, 0.2, 0.1}
	if got := PrecisionAtK(exact, exact, 2); got != 1 {
		t.Errorf("self precision = %v", got)
	}
	est := []float64{0.0, 0.5, 0.5, 0.0} // picks {1,2}; threshold is exact[1]=0.3
	if got := PrecisionAtK(exact, est, 2); got != 0.5 {
		t.Errorf("precision = %v want 0.5", got)
	}
	// Ties at the boundary get credit.
	tied := []float64{0.3, 0.3, 0.2, 0.1}
	estT := []float64{0.9, 0.0, 0.0, 0.0}
	if got := PrecisionAtK(tied, estT, 1); got != 1 {
		t.Errorf("tied precision = %v want 1", got)
	}
	if got := PrecisionAtK(exact, est, 0); got != 1 {
		t.Errorf("k=0 precision = %v", got)
	}
}

func TestMetricsOnSmallVectors(t *testing.T) {
	a := []float64{0.5, 0.3, 0.2}
	b := []float64{0.2, 0.3, 0.5}
	if L1Distance(a, b) != 0.6 {
		t.Error("L1 wrong")
	}
	if ChiSquaredContrast(a, a) != 0 {
		t.Error("chi2 self should be 0")
	}
	if KendallTauTopK(a, a, 3) != 1 {
		t.Error("tau self should be 1")
	}
	if PrecisionAtK(a, a, 2) != 1 {
		t.Error("precision self should be 1")
	}
}
