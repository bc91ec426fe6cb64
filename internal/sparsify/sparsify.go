// Package sparsify implements the uniform graph-sparsification baseline
// the paper compares against in Section 2.4 / Figure 5: delete each
// edge independently with probability r (keep with probability
// q = 1 - r), then run GraphLab PR for a couple of iterations on the
// thinner graph. Vertices whose out-edges are all deleted get one
// surviving edge re-enabled uniformly at random, mirroring the "At
// Least One Out-Edge Per Node" repair so the walk interpretation stays
// sound.
package sparsify

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/glpr"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Uniform returns a sparsified copy of g where each edge is kept
// independently with probability q ∈ (0, 1]. Vertices that lose every
// out-edge get one of their original out-edges back (chosen uniformly),
// so the result never has dangling vertices if g did not.
func Uniform(g *graph.Graph, q float64, seed uint64) (*graph.Graph, error) {
	if g == nil {
		return nil, errors.New("sparsify: nil graph")
	}
	if q <= 0 || q > 1 {
		return nil, fmt.Errorf("sparsify: keep probability %v out of (0,1]", q)
	}
	n := g.NumVertices()
	r := rng.Derive(seed, 0x59A2)
	kept := make([]graph.Edge, 0, int(float64(g.NumEdges())*q)+n)
	adj := g.NewAdjReader()
	defer adj.Release()
	for v := 0; v < n; v++ {
		outs := adj.OutNeighbors(graph.VertexID(v))
		if len(outs) == 0 {
			continue
		}
		before := len(kept)
		for _, d := range outs {
			if r.Bernoulli(q) {
				kept = append(kept, graph.Edge{Src: graph.VertexID(v), Dst: d})
			}
		}
		if len(kept) == before {
			// Re-enable one out-edge uniformly at random.
			d := outs[r.Intn(len(outs))]
			kept = append(kept, graph.Edge{Src: graph.VertexID(v), Dst: d})
		}
	}
	return graph.FromEdges(n, kept), nil
}

// Config configures the sparsify-then-PageRank baseline.
type Config struct {
	// Keep is q = 1 - r, the probability each edge survives.
	Keep float64
	// Iterations of GL PR to run on the sparsified graph (the paper
	// uses 2; 1 just measures in-degree).
	Iterations int
	// Machines is the cluster size.
	Machines int
	// Partitioner selects ingress; nil means random.
	Partitioner cluster.Partitioner
	// Teleport is pT; 0 selects 0.15.
	Teleport float64
	// Seed drives sparsification, partitioning and the engine.
	Seed uint64
	// Cost overrides the cost model.
	Cost cluster.CostModel
}

// Result is the baseline's output.
type Result struct {
	// Rank is the PageRank estimate computed on the sparsified graph.
	Rank []float64
	// Stats covers the GL PR run on the sparsified graph. Note the
	// paper (and this implementation) excludes the sparsification and
	// re-ingress time itself from reported run time, which already
	// favours the baseline.
	Stats *gas.RunStats
	// KeptEdges is the sparsified graph's edge count.
	KeptEdges int64
}

// Run sparsifies g and runs GL PR on the result.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("sparsify: Iterations must be positive, got %d", cfg.Iterations)
	}
	sg, err := Uniform(g, cfg.Keep, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pr, err := glpr.Run(sg, glpr.Config{
		Machines:    cfg.Machines,
		Partitioner: cfg.Partitioner,
		Teleport:    cfg.Teleport,
		Iterations:  cfg.Iterations,
		Seed:        cfg.Seed,
		Cost:        cfg.Cost,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Rank: pr.Rank, Stats: pr.Stats, KeptEdges: sg.NumEdges()}, nil
}
