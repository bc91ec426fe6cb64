// Package montecarlo implements the prior-work baseline of Avrachenkov
// et al., "Monte Carlo methods in PageRank computation: When one
// iteration is sufficient" (SIAM J. Numer. Anal. 2007) — reference [5]
// of the FrogWild paper. It starts R walkers from every vertex (the
// paper's headline configuration is R = 1, i.e. n walkers total, versus
// FrogWild's sublinear N ≪ n) and lets each run to its natural
// geometric death, with no cutoff.
//
// Two estimators from that paper are provided:
//
//   - EndPoint: tallies only each walk's final position (what FrogWild
//     also does).
//   - CompletePath: tallies every visited vertex and normalizes by
//     pT/total-visits, which uses each walk more efficiently.
package montecarlo

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/walk"
)

// Estimator selects the Monte Carlo estimator variant.
type Estimator int

const (
	// EndPoint tallies walk end positions.
	EndPoint Estimator = iota
	// CompletePath tallies all visited vertices.
	CompletePath
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case EndPoint:
		return "endpoint"
	case CompletePath:
		return "completepath"
	}
	return fmt.Sprintf("estimator(%d)", int(e))
}

// Config configures a Monte Carlo PageRank run.
type Config struct {
	// WalkersPerVertex is R; Avrachenkov et al. show R = 1 already
	// gives a good global approximation. 0 selects 1.
	WalkersPerVertex int
	// Teleport is pT; 0 selects 0.15.
	Teleport float64
	// MaxSteps truncates pathological walks (the geometric has
	// unbounded support); 0 selects 1000.
	MaxSteps int
	// Estimator selects the variant.
	Estimator Estimator
	// Seed drives the walks.
	Seed uint64
}

// Result is a Monte Carlo run's output.
type Result struct {
	// Estimate is the PageRank estimate (a distribution).
	Estimate []float64
	// Walks is the number of walks performed.
	Walks int
	// TotalSteps is the total number of edge traversals, the
	// computational cost driver.
	TotalSteps int64
}

// Run performs R walks from every vertex, sharded across GOMAXPROCS
// goroutines: a thin configuration of the walk kernel (internal/walk)
// that starts at every vertex, stops at a dangling vertex and tallies
// endpoints or complete paths. Every walk draws from its own derived
// rng.Stream, so for a fixed Config the result is a deterministic
// function of the graph and seed, independent of GOMAXPROCS.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("montecarlo: empty graph")
	}
	r := cfg.WalkersPerVertex
	if r == 0 {
		r = 1
	}
	if r < 0 {
		return nil, fmt.Errorf("montecarlo: negative walkers per vertex %d", r)
	}
	pT := cfg.Teleport
	if pT == 0 {
		pT = 0.15
	}
	if pT <= 0 || pT > 1 {
		return nil, fmt.Errorf("montecarlo: teleport %v out of (0,1]", cfg.Teleport)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1000
	}
	n := g.NumVertices()

	// Walk i starts at vertex i/r and takes min(Geometric(pT), maxSteps)
	// steps, drawn from its own stream derived from (seed, i).
	counts, steps := walk.Tally(g, r*n, cfg.Estimator == CompletePath, func(s *walk.Scratch, i int) {
		stream := rng.DeriveValue(cfg.Seed, 0x3C4, uint64(i))
		left := walk.Length(&stream, pT, maxSteps)
		s.Add(stream, graph.VertexID(i/r), left)
	})
	res := &Result{Walks: r * n, TotalSteps: int64(steps), Estimate: make([]float64, n)}
	total := float64(res.Walks) // one endpoint per walk
	if cfg.Estimator == CompletePath {
		total += float64(steps) // its start and every position it stepped to
	}
	for v, c := range counts {
		res.Estimate[v] = float64(c) / total
	}
	return res, nil
}
