package theory

// This file computes walk distributions analytically (by dense
// iteration of the transition operator), so tests can verify the
// paper's process-equivalence and convergence lemmas exactly:
//
//   - Lemma 16: the fixed-step walk with teleportation (Process 11,
//     distribution Q^t·u) equals the truncated-geometric walk without
//     teleportation (Process 15, equation (5)).
//   - Lemma 14: χ²(π_t; π) ≤ ((1−pT)/pT)·(1−pT)^t.
//
// These run in O(t·m) and are intended for small graphs in tests and
// diagnostics, not production use.

import (
	"errors"

	"repro/internal/graph"
)

// stepP applies the plain transition operator P (uniform over
// out-edges) to distribution x. Dangling vertices hold their mass (the
// callers below require dout > 0 anyway).
func stepP(g *graph.Graph, x []float64) []float64 {
	n := g.NumVertices()
	next := make([]float64, n)
	r := g.NewAdjReader() // one cursor and row buffer per step on a paged graph
	defer r.Release()
	for v := 0; v < n; v++ {
		outs := r.OutNeighbors(graph.VertexID(v))
		if len(outs) == 0 {
			next[v] += x[v]
			continue
		}
		w := x[v] / float64(len(outs))
		for _, d := range outs {
			next[d] += w
		}
	}
	return next
}

// WalkDistribution returns Q^t·u — the distribution of a walker that
// starts uniform and follows the teleporting chain Q for exactly t
// steps (the paper's Process 11).
func WalkDistribution(g *graph.Graph, t int, pT float64) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, errors.New("theory: empty graph")
	}
	if pT < 0 || pT > 1 {
		return nil, errors.New("theory: pT out of [0,1]")
	}
	uniform := 1 / float64(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = uniform
	}
	for step := 0; step < t; step++ {
		px := stepP(g, x)
		for i := range px {
			x[i] = (1-pT)*px[i] + pT*uniform
		}
	}
	return x, nil
}

// TruncatedGeometricDistribution returns the sampling distribution of
// the paper's Process 15 via equation (5):
//
//	π'_t = Σ_{τ=0..t} pT(1−pT)^τ P^τ u + (1−pT)^{t+1} P^t u
//
// — a walker that follows the plain chain P for min(Geom(pT), t)
// steps from a uniform start. Lemma 16 proves this equals
// WalkDistribution(g, t, pT); TestLemma16 verifies our implementations
// agree to machine precision.
func TruncatedGeometricDistribution(g *graph.Graph, t int, pT float64) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, errors.New("theory: empty graph")
	}
	if pT < 0 || pT > 1 {
		return nil, errors.New("theory: pT out of [0,1]")
	}
	uniform := 1 / float64(n)
	pu := make([]float64, n) // P^τ u
	for i := range pu {
		pu[i] = uniform
	}
	out := make([]float64, n)
	coeff := pT // pT(1-pT)^τ at τ=0
	for tau := 0; ; tau++ {
		for i := range out {
			out[i] += coeff * pu[i]
		}
		if tau == t {
			// Add the cutoff term (1-pT)^{t+1} P^t u.
			tail := coeff / pT * (1 - pT)
			for i := range out {
				out[i] += tail * pu[i]
			}
			break
		}
		pu = stepP(g, pu)
		coeff *= 1 - pT
	}
	return out, nil
}
