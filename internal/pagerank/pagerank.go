// Package pagerank computes the exact PageRank vector by power
// iteration. It provides the ground truth π against which FrogWild's
// estimator and the GraphLab-PR baseline are evaluated (Definition 1 of
// the paper: π is the principal right eigenvector of
// Q = (1-pT)·P + pT·(1/n)·1).
//
// The inner loop runs on the shared-memory worker pool of package
// parallel, pulling each destination's rank from its in-neighbors over
// contiguous CSR vertex chunks. Chunk boundaries depend only on the
// vertex count and floating-point partials are reduced in chunk index
// order, so the result is bit-identical for every GOMAXPROCS, which
// sizes the pool.
package pagerank

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// DefaultTeleport is the conventional teleportation probability; the
// paper fixes pT = 0.15 throughout.
const DefaultTeleport = 0.15

// Options configures the power-iteration solver.
type Options struct {
	// Teleport is pT; defaults to DefaultTeleport when zero.
	Teleport float64
	// Tolerance is the L1 change between iterations below which the
	// solver stops. Defaults to 1e-12 when zero.
	Tolerance float64
	// MaxIterations caps the iteration count. Defaults to 500 when zero.
	MaxIterations int
}

// Result holds the converged PageRank vector and solver diagnostics.
type Result struct {
	// Rank is π: Rank[v] is the PageRank of v; sums to 1.
	Rank []float64
	// Iterations actually performed.
	Iterations int
	// Residual is the final L1 change between iterations.
	Residual float64
	// Converged reports whether Residual fell below tolerance before
	// MaxIterations was reached.
	Converged bool
}

// Exact runs power iteration on Q until convergence. Dangling vertices
// (out-degree zero) are handled by spreading their mass uniformly, the
// standard correction; graphs produced by this repo's generators have
// none.
func Exact(g *graph.Graph, opts Options) (*Result, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, errors.New("pagerank: empty graph")
	}
	pT := opts.Teleport
	if pT == 0 {
		pT = DefaultTeleport
	}
	if pT < 0 || pT > 1 {
		return nil, fmt.Errorf("pagerank: teleport %v out of [0,1]", pT)
	}
	tol := opts.Tolerance
	if tol == 0 {
		tol = 1e-12
	}
	maxIter := opts.MaxIterations
	if maxIter == 0 {
		maxIter = 500
	}

	cur := make([]float64, n)
	next := make([]float64, n)
	uniform := 1 / float64(n)
	for i := range cur {
		cur[i] = uniform
	}

	// Dangling vertices, in ascending order, so their mass is summed in
	// a fixed order each iteration regardless of worker count.
	var dangling []graph.VertexID
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) == 0 {
			dangling = append(dangling, graph.VertexID(v))
		}
	}

	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	chunks := parallel.Chunks(n)
	contrib := make([]float64, n)          // cur[s]/dout(s), or 0 for dangling s
	deltas := make([]float64, len(chunks)) // per-chunk L1 partials

	res := &Result{}
	for iter := 1; iter <= maxIter; iter++ {
		// next = (1-pT)·P·cur + (pT + (1-pT)·danglingMass)·u
		danglingMass := 0.0
		for _, v := range dangling {
			danglingMass += cur[v]
		}
		base := pT*uniform + (1-pT)*danglingMass*uniform
		pool.Run(len(chunks), func(c, _ int) {
			for v := chunks[c].Lo; v < chunks[c].Hi; v++ {
				if d := g.OutDegree(graph.VertexID(v)); d > 0 {
					contrib[v] = cur[v] / float64(d)
				} else {
					contrib[v] = 0
				}
			}
		})
		// Pull phase: each chunk owns a contiguous destination range, so
		// there are no write races, and each next[v] accumulates its
		// in-neighbor contributions in the fixed CSR order.
		pool.Run(len(chunks), func(c, _ int) {
			r := g.NewAdjReader() // one cursor and row buffer per chunk on a paged graph
			defer r.Release()
			delta := 0.0
			for v := chunks[c].Lo; v < chunks[c].Hi; v++ {
				sum := 0.0
				for _, s := range r.InNeighbors(graph.VertexID(v)) {
					sum += contrib[s]
				}
				x := (1-pT)*sum + base
				next[v] = x
				delta += math.Abs(x - cur[v])
			}
			deltas[c] = delta
		})
		delta := 0.0
		for _, d := range deltas {
			delta += d
		}
		cur, next = next, cur
		res.Iterations = iter
		res.Residual = delta
		if delta < tol {
			res.Converged = true
			break
		}
	}
	res.Rank = cur
	return res, nil
}

// Iterate runs exactly k power iterations from the uniform vector and
// returns the (possibly unconverged) iterate. This models "GraphLab PR
// run for k iterations", the paper's reduced-iterations heuristic, in
// its idealized serial form.
func Iterate(g *graph.Graph, k int, teleport float64) (*Result, error) {
	if k < 0 {
		return nil, fmt.Errorf("pagerank: negative iteration count %d", k)
	}
	r, err := Exact(g, Options{Teleport: teleport, Tolerance: math.SmallestNonzeroFloat64, MaxIterations: max(k, 1)})
	if err != nil {
		return nil, err
	}
	if k == 0 {
		// The zero-iteration "estimate" is the uniform vector.
		n := g.NumVertices()
		u := make([]float64, n)
		for i := range u {
			u[i] = 1 / float64(n)
		}
		return &Result{Rank: u}, nil
	}
	return r, nil
}

// Validate checks that v is a probability distribution to within eps.
func Validate(v []float64, eps float64) error {
	sum := 0.0
	for i, x := range v {
		if x < -eps || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("pagerank: entry %d = %v invalid", i, x)
		}
		sum += x
	}
	if math.Abs(sum-1) > eps {
		return fmt.Errorf("pagerank: sums to %v, want 1", sum)
	}
	return nil
}
