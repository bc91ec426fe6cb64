package rng

import "math"

// Zipf samples from a bounded Zipf (power-law) distribution over
// {min, ..., max} with P(X = x) ∝ x^(-s). It uses rejection-inversion
// (Hörmann & Derflinger), which is O(1) per sample for s > 1 and
// degrades gracefully for s in (0, 1].
//
// It is used by the graph generators to draw out-degrees with the heavy
// tail that real web/social graphs exhibit; the paper's Proposition 7
// assumes the PageRank values follow a power law with θ ≈ 2.2, which
// such degree distributions induce.
type Zipf struct {
	s        float64
	min, max float64
	// precomputed constants for rejection-inversion
	hx0, hxm, oneMinusS float64
}

// NewZipf returns a Zipf sampler over {min..max} with exponent s > 0.
// It panics on invalid arguments.
func NewZipf(s float64, min, max int) *Zipf {
	if s <= 0 || min < 1 || max < min {
		panic("rng: NewZipf requires s > 0 and 1 <= min <= max")
	}
	z := &Zipf{s: s, min: float64(min), max: float64(max), oneMinusS: 1 - s}
	z.hx0 = z.h(z.min-0.5) - math.Exp(-s*math.Log(z.min))
	z.hxm = z.h(z.max + 0.5)
	return z
}

// h is the antiderivative used by rejection-inversion:
// h(x) = x^(1-s)/(1-s) for s != 1, log(x) for s == 1.
func (z *Zipf) h(x float64) float64 {
	if z.oneMinusS == 0 {
		return math.Log(x)
	}
	return math.Exp(z.oneMinusS*math.Log(x)) / z.oneMinusS
}

// hInv inverts h.
func (z *Zipf) hInv(x float64) float64 {
	if z.oneMinusS == 0 {
		return math.Exp(x)
	}
	return math.Exp(math.Log(z.oneMinusS*x) / z.oneMinusS)
}

// Sample draws one value from the distribution.
func (z *Zipf) Sample(r *Stream) int {
	for {
		u := z.hx0 + r.Float64()*(z.hxm-z.hx0)
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k < z.min {
			k = z.min
		}
		if k > z.max {
			k = z.max
		}
		if u >= z.h(k+0.5)-math.Exp(-z.s*math.Log(k)) {
			return int(k)
		}
	}
}

// PowerLawWeights returns unnormalized Zipf weights w[i] = (i+1)^(-s)
// for i in [0, n). Useful for constructing skewed preference vectors.
func PowerLawWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Exp(-s * math.Log(float64(i+1)))
	}
	return w
}

// AliasTable supports O(1) sampling from an arbitrary discrete
// distribution via the Walker alias method. The graph generators use it
// to pick edge destinations proportionally to popularity weights.
type AliasTable struct {
	prob  []float64
	alias []int32
}

// NewAliasTable builds an alias table from the given non-negative
// weights. It panics if weights is empty or sums to zero.
func NewAliasTable(weights []float64) *AliasTable {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAliasTable with empty weights")
	}
	sum := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewAliasTable with negative or NaN weight")
		}
		sum += w
	}
	if sum == 0 {
		panic("rng: NewAliasTable with zero total weight")
	}
	t := &AliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1 // numerical leftovers
	}
	return t
}

// Sample draws one index from the table's distribution.
func (t *AliasTable) Sample(r *Stream) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
