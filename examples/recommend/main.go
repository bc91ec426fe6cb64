// Recommend: "accounts you may want to follow" via personalized
// PageRank. The paper's Section 2.4 discusses top-k personalized
// PageRank (Avrachenkov et al.) as the sibling problem of its global
// top-k task; the FrogWild machinery solves it by restarting frogs from
// the user's account instead of uniformly. This example builds a
// follower graph, picks a user, and compares personalized FrogWild's
// recommendations against exact PPR — and against the global ranking,
// to show personalization actually changes the answer.
package main

import (
	"fmt"
	"log"

	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func main() {
	const users = 15000
	g, err := gen.PowerLaw(gen.TwitterLike(users, 77))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("follower graph: %d users, %d follow edges\n", g.NumVertices(), g.NumEdges())

	// The user we recommend for: someone ordinary (not a celebrity).
	user := graph.VertexID(4321)
	fmt.Printf("recommending for user %d (following %d accounts)\n\n", user, g.OutDegree(user))

	exactPPR, err := frogwild.ExactPPR(g, []graph.VertexID{user}, 0, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := frogwild.RunPPR(g, frogwild.PPRConfig{
		Config: frogwild.Config{
			Walkers:    60000,
			Iterations: 10,
			PS:         0.7,
			Machines:   16,
			Seed:       77,
		},
		Sources: []graph.VertexID{user},
	})
	if err != nil {
		log.Fatal(err)
	}
	globalPR, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		log.Fatal(err)
	}

	const k = 10
	globalTop := map[uint32]bool{}
	for _, e := range topk.Top(globalPR.Rank, k) {
		globalTop[e.Vertex] = true
	}

	fmt.Printf("%-5s %-10s %-12s %-12s %s\n", "rank", "account", "frogwild", "exact ppr", "in global top-10?")
	for i, e := range topk.Top(res.Estimate, k) {
		inGlobal := ""
		if globalTop[e.Vertex] {
			inGlobal = "yes"
		}
		fmt.Printf("%-5d %-10d %-12.5f %-12.5f %s\n", i+1, e.Vertex, e.Score, exactPPR[e.Vertex], inGlobal)
	}

	fmt.Printf("\npersonalized accuracy (k=%d): mass %.4f, identification %.4f, tau %.3f\n",
		k,
		topk.NormalizedCapturedMass(exactPPR, res.Estimate, k),
		topk.ExactIdentification(exactPPR, res.Estimate, k),
		topk.KendallTauTopK(exactPPR, res.Estimate, k))
	fmt.Printf("overlap of personalized vs global top-%d (exact): %.0f%%\n",
		k, 100*topk.ExactIdentification(globalPR.Rank, exactPPR, k))
	fmt.Printf("network bytes: %d (vs exact PPR, which needs full power iteration)\n",
		res.Stats.Net.TotalBytes)
}
