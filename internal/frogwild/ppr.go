package frogwild

// Personalized PageRank (PPR) extension. The paper's Section 2.4
// discusses top-k PPR (Avrachenkov et al. [6]) as a related problem;
// the FrogWild machinery solves it with a one-line change: frogs
// restart from the personalization set instead of the uniform
// distribution. Lemma 16's equivalence between explicit teleportation
// and geometric walk lengths is agnostic to the restart distribution,
// so the truncated-geometric process still samples the personalized
// invariant distribution.

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/rng"
)

// PPRConfig configures a personalized FrogWild run. All Config fields
// apply; Sources replaces the uniform start/restart distribution.
type PPRConfig struct {
	Config
	// Sources is the personalization set: frogs start (and conceptually
	// teleport back to) these vertices, uniformly. Must be non-empty
	// and within range.
	Sources []graph.VertexID
}

// RunPPR executes personalized FrogWild: the estimate approximates the
// heavy entries of the PPR vector of the source set.
func RunPPR(g *graph.Graph, cfg PPRConfig) (*Result, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("frogwild: empty graph")
	}
	if len(cfg.Sources) == 0 {
		return nil, errors.New("frogwild: PPR needs at least one source vertex")
	}
	for _, s := range cfg.Sources {
		if int(s) >= g.NumVertices() {
			return nil, fmt.Errorf("frogwild: source %d out of range", s)
		}
	}
	placer := func(n, walkers int, r *rng.Stream) []int64 {
		init := make([]int64, n)
		buckets := make([]int64, len(cfg.Sources))
		r.MultinomialSplit(walkers, buckets)
		for i, b := range buckets {
			init[cfg.Sources[i]] += b
		}
		return init
	}
	return runWithPlacement(g, cfg.Config, placer)
}

// ExactPPR computes the exact personalized PageRank vector for the
// uniform distribution over sources by power iteration — ground truth
// for RunPPR. Dangling mass restarts at the sources.
func ExactPPR(g *graph.Graph, sources []graph.VertexID, teleport float64, tol float64, maxIter int) ([]float64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, errors.New("frogwild: empty graph")
	}
	if len(sources) == 0 {
		return nil, errors.New("frogwild: PPR needs at least one source vertex")
	}
	if teleport == 0 {
		teleport = pagerank.DefaultTeleport
	}
	if teleport <= 0 || teleport > 1 {
		return nil, fmt.Errorf("frogwild: teleport %v out of (0,1]", teleport)
	}
	if tol == 0 {
		tol = 1e-12
	}
	if maxIter == 0 {
		maxIter = 500
	}
	restart := make([]float64, n)
	share := 1 / float64(len(sources))
	for _, s := range sources {
		if int(s) >= n {
			return nil, fmt.Errorf("frogwild: source %d out of range", s)
		}
		restart[s] += share
	}
	cur := append([]float64(nil), restart...)
	next := make([]float64, n)
	r := g.NewAdjReader() // one cursor and row buffer for the whole solve on a paged graph
	defer r.Release()
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		dangling := 0.0
		for v := 0; v < n; v++ {
			outs := r.OutNeighbors(graph.VertexID(v))
			if len(outs) == 0 {
				dangling += cur[v]
				continue
			}
			w := cur[v] / float64(len(outs))
			for _, d := range outs {
				next[d] += w
			}
		}
		delta := 0.0
		for i := range next {
			next[i] = (1-teleport)*(next[i]+dangling*restart[i]) + teleport*restart[i]
			delta += abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if delta < tol {
			break
		}
	}
	return cur, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
