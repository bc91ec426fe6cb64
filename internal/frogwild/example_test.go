package frogwild_test

import (
	"fmt"

	"repro/internal/frogwild"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

// ExampleRun generates a Twitter-like graph, runs FrogWild on a
// simulated 16-machine cluster with N = n/6 frogs (the paper's
// walker-to-vertex ratio), 4 iterations and 70% mirror synchronization,
// and compares the reported top vertices with exact PageRank.
func ExampleRun() {
	const vertices, seed = 6000, 42
	g, err := gen.PowerLaw(gen.TwitterLike(vertices, seed))
	if err != nil {
		panic(err)
	}
	res, err := frogwild.Run(g, frogwild.Config{
		Walkers:    vertices / 6,
		Iterations: 4,
		PS:         0.7,
		Machines:   16,
		Seed:       seed,
	})
	if err != nil {
		panic(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("%-5s %-7s %-9s %s\n", "rank", "vertex", "frogwild", "exact")
	for i, e := range topk.Top(res.Estimate, 5) {
		fmt.Printf("%-5d %-7d %-9.4f %.4f\n", i+1, e.Vertex, e.Score, exact.Rank[e.Vertex])
	}
	fmt.Printf("mass captured (k=20): %.3f\n", topk.NormalizedCapturedMass(exact.Rank, res.Estimate, 20))
	// Output:
	// graph: 6000 vertices, 153841 edges
	// rank  vertex  frogwild  exact
	// 1     672     0.0650    0.0505
	// 2     5792    0.0600    0.0638
	// 3     3621    0.0370    0.0306
	// 4     5113    0.0340    0.0323
	// 5     4899    0.0270    0.0261
	// mass captured (k=20): 0.934
}
