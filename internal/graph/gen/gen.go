// Package gen provides synthetic directed-graph generators used in place
// of the paper's Twitter and LiveJournal datasets.
//
// The central generator is the Zipf configuration model with a
// preferential (power-law) destination distribution: out-degrees are
// drawn from a bounded Zipf law and destinations are drawn from a Zipf
// popularity vector over vertices. This reproduces the two structural
// properties FrogWild's evaluation depends on: heavy-tailed in/out
// degrees (which drive vertex-cut replication factors) and a PageRank
// vector whose tail follows a power law (Proposition 7 in the paper,
// after Becchetti & Castillo).
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// PowerLawConfig parameterizes the Zipf configuration model.
type PowerLawConfig struct {
	N            int     // number of vertices
	MeanOutDeg   float64 // target mean out-degree
	DegExponent  float64 // Zipf exponent for out-degrees (≈ 2.0–2.3 for social graphs)
	PrefExponent float64 // Zipf exponent for destination popularity (≈ 0.8–1.2)
	MaxDegree    int     // out-degree cap; 0 means N-1
	Seed         uint64
}

// PowerLaw generates a directed power-law graph. Every vertex receives
// at least one out-edge, so the result never has dangling vertices
// (matching the paper's dout > 0 assumption). Self-loops are avoided
// by redrawing; parallel edges are deduplicated per source.
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if cfg.N <= 1 {
		return nil, fmt.Errorf("gen: PowerLaw needs N > 1, got %d", cfg.N)
	}
	if cfg.MeanOutDeg < 1 {
		return nil, fmt.Errorf("gen: MeanOutDeg must be >= 1, got %v", cfg.MeanOutDeg)
	}
	if cfg.DegExponent <= 1 {
		return nil, fmt.Errorf("gen: DegExponent must be > 1, got %v", cfg.DegExponent)
	}
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg > cfg.N-1 {
		maxDeg = cfg.N - 1
	}
	r := rng.Derive(cfg.Seed, 0xD06)

	// Draw raw Zipf degrees, then scale to hit the target mean. The
	// bounded Zipf mean is computed empirically from the draw itself,
	// which keeps the code free of special-function evaluations.
	degs := make([]int, cfg.N)
	zipf := rng.NewZipf(cfg.DegExponent, 1, maxDeg)
	var total float64
	for i := range degs {
		degs[i] = zipf.Sample(r)
		total += float64(degs[i])
	}
	scale := cfg.MeanOutDeg * float64(cfg.N) / total
	var m int64
	for i := range degs {
		d := int(float64(degs[i])*scale + 0.5)
		if d < 1 {
			d = 1
		}
		if d > maxDeg {
			d = maxDeg
		}
		degs[i] = d
		m += int64(d)
	}

	// Destination popularity: Zipf weights over a random permutation of
	// vertices, so popular destinations are not correlated with vertex id.
	prefExp := cfg.PrefExponent
	if prefExp <= 0 {
		prefExp = 1.0
	}
	weights := rng.PowerLawWeights(cfg.N, prefExp)
	perm := make([]int, cfg.N)
	r.Perm(perm)
	permuted := make([]float64, cfg.N)
	for i, p := range perm {
		permuted[p] = weights[i]
	}
	table := rng.NewAliasTable(permuted)

	edges := make([]graph.Edge, 0, m)
	seen := make(map[uint32]struct{}, 64)
	for v := 0; v < cfg.N; v++ {
		clear(seen)
		want := degs[v]
		attempts := 0
		for len(seen) < want {
			d := uint32(table.Sample(r))
			attempts++
			if attempts > 20*want+100 {
				// Extremely skewed preference vectors can make unique
				// destinations scarce; fall back to uniform picks.
				d = uint32(r.Intn(cfg.N))
			}
			if int(d) == v {
				continue
			}
			if _, dup := seen[d]; dup {
				continue
			}
			seen[d] = struct{}{}
			edges = append(edges, graph.Edge{Src: uint32(v), Dst: d})
		}
	}
	return graph.FromEdges(cfg.N, edges), nil
}

// TwitterLike returns a PowerLawConfig sized like a scaled-down Twitter
// follower graph (the paper's 41.6M-vertex, 1.4B-edge graph has mean
// degree ≈ 33.6 and strongly skewed in-degrees). scale selects the
// vertex count.
func TwitterLike(n int, seed uint64) PowerLawConfig {
	return PowerLawConfig{
		N:            n,
		MeanOutDeg:   30,
		DegExponent:  2.0,
		PrefExponent: 1.1,
		MaxDegree:    n / 10,
		Seed:         seed,
	}
}

// LiveJournalLike returns a PowerLawConfig sized like a scaled-down
// LiveJournal graph (4.8M vertices, 69M edges, mean degree ≈ 14.3,
// milder skew than Twitter).
func LiveJournalLike(n int, seed uint64) PowerLawConfig {
	return PowerLawConfig{
		N:            n,
		MeanOutDeg:   14,
		DegExponent:  2.2,
		PrefExponent: 0.9,
		MaxDegree:    n / 20,
		Seed:         seed,
	}
}

// ErdosRenyi generates a directed G(n, m) graph with m edges chosen
// uniformly at random (self-loops excluded, parallel edges allowed),
// then repairs dangling vertices with self-loops.
func ErdosRenyi(n int, m int64, seed uint64) (*graph.Graph, error) {
	if n <= 1 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n > 1")
	}
	r := rng.Derive(seed, 0xE12)
	b := graph.NewBuilder(n)
	for i := int64(0); i < m; i++ {
		s := uint32(r.Intn(n))
		d := uint32(r.Intn(n))
		for d == s {
			d = uint32(r.Intn(n))
		}
		b.AddEdge(s, d)
	}
	return b.Build()
}

// RMATConfig parameterizes the recursive-matrix (Kronecker) generator of
// Chakrabarti et al., the standard synthetic web-graph model (Graph500
// uses a=0.57, b=c=0.19, d=0.05).
type RMATConfig struct {
	Scale      int // n = 2^Scale vertices
	EdgeFactor int // m = EdgeFactor * n edges
	A, B, C    float64
	Seed       uint64
	NoDedup    bool // keep parallel edges (faster, Graph500-style)
}

// DefaultRMAT returns the Graph500 parameterization at the given scale.
func DefaultRMAT(scale, edgeFactor int, seed uint64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// RMAT generates an R-MAT graph. Dangling vertices are repaired with
// self-loops so the result satisfies dout > 0 everywhere.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of [1,30]", cfg.Scale)
	}
	if cfg.A <= 0 || cfg.B < 0 || cfg.C < 0 || cfg.A+cfg.B+cfg.C >= 1 {
		return nil, fmt.Errorf("gen: RMAT probabilities invalid (a=%v b=%v c=%v)", cfg.A, cfg.B, cfg.C)
	}
	n := 1 << cfg.Scale
	m := int64(cfg.EdgeFactor) * int64(n)
	r := rng.Derive(cfg.Seed, 0x12A7)
	b := graph.NewBuilder(n).NoSelfLoops()
	if !cfg.NoDedup {
		b.Dedup()
	}
	for i := int64(0); i < m; i++ {
		var src, dst int
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			u := r.Float64()
			switch {
			case u < cfg.A:
				// top-left quadrant: no bits set
			case u < cfg.A+cfg.B:
				dst |= 1 << bit
			case u < cfg.A+cfg.B+cfg.C:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		b.AddEdge(uint32(src), uint32(dst))
	}
	return b.Build()
}

// Cycle returns the directed n-cycle 0→1→…→n-1→0; useful as a
// worst-case mixing-time test graph.
func Cycle(n int) *graph.Graph {
	es := make([]graph.Edge, n)
	for v := 0; v < n; v++ {
		es[v] = graph.Edge{Src: uint32(v), Dst: uint32((v + 1) % n)}
	}
	return graph.FromEdges(n, es)
}

// Star returns a graph where vertex 0 points to all others and all
// others point back to 0; vertex 0 dominates the PageRank vector.
func Star(n int) *graph.Graph {
	es := make([]graph.Edge, 0, 2*(n-1))
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{Src: 0, Dst: uint32(v)}, graph.Edge{Src: uint32(v), Dst: 0})
	}
	return graph.FromEdges(n, es)
}

// Complete returns the complete directed graph on n vertices (no
// self-loops); its PageRank vector is exactly uniform.
func Complete(n int) *graph.Graph {
	es := make([]graph.Edge, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				es = append(es, graph.Edge{Src: uint32(s), Dst: uint32(d)})
			}
		}
	}
	return graph.FromEdges(n, es)
}
