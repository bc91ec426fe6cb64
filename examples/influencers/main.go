// Influencers: the paper's first motivating application (Section 1):
// a telecom/OSN operator wants its top-k most influential customers
// from the activity (call) graph — quickly and repeatedly, because the
// graph changes constantly. The full ranking is irrelevant; only the
// heavy hitters matter, so FrogWild's speed/accuracy trade-off is the
// right tool.
//
// The example builds a synthetic activity graph, then sweeps the
// synchronization probability ps to show the paper's headline
// trade-off: network traffic falls almost linearly in ps while the
// top-50 captured mass degrades only mildly.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/glpr"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func main() {
	// A call graph: power-law activity (a few call centers and
	// socialites, many quiet customers).
	const customers = 30000
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N:            customers,
		MeanOutDeg:   10,
		DegExponent:  2.2,
		PrefExponent: 1.0,
		Seed:         2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("activity graph: %d customers, %d call edges\n", g.NumVertices(), g.NumEdges())

	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// One shared cluster layout (ingress is paid once; the operator
	// re-runs the ranking as the graph evolves).
	lay, err := cluster.NewLayout(g, 20, nil, 2024)
	if err != nil {
		log.Fatal(err)
	}

	const k = 50
	fmt.Printf("\nsweeping mirror-synchronization probability ps (20 machines, %d walkers, 4 iterations):\n\n",
		customers/6)
	fmt.Printf("%-8s %-16s %-14s %-12s %-10s\n", "ps", "network bytes", "sim time (s)", "mass k=50", "ident k=50")
	var fullNet int64
	for _, ps := range []float64{1.0, 0.7, 0.4, 0.1} {
		res, err := frogwild.Run(g, frogwild.Config{
			Walkers:    customers / 6,
			Iterations: 4,
			PS:         ps,
			Layout:     lay,
			Seed:       2024,
		})
		if err != nil {
			log.Fatal(err)
		}
		if ps == 1.0 {
			fullNet = res.Stats.Net.TotalBytes
		}
		fmt.Printf("%-8.1f %-16d %-14.4f %-12.4f %-10.4f\n",
			ps, res.Stats.Net.TotalBytes, res.Stats.SimSeconds,
			topk.NormalizedCapturedMass(exact.Rank, res.Estimate, k),
			topk.ExactIdentification(exact.Rank, res.Estimate, k))
	}

	// The baseline the operator would otherwise run.
	gl, err := glpr.Run(g, glpr.Config{Layout: lay, Seed: 2024})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGraphLab PR exact: %d iterations, %d network bytes (%.0fx FrogWild ps=1), %.4f sim s\n",
		gl.Stats.Supersteps, gl.Stats.Net.TotalBytes,
		float64(gl.Stats.Net.TotalBytes)/float64(fullNet), gl.Stats.SimSeconds)

	// Show the campaign list itself.
	res, err := frogwild.Run(g, frogwild.Config{
		Walkers: customers / 6, Iterations: 4, PS: 0.7, Layout: lay, Seed: 2024,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-10 influential customers (ps=0.7):\n")
	for i, e := range topk.Top(res.Estimate, 10) {
		marker := " "
		if exactRankOf(exact.Rank, e.Vertex, 10) {
			marker = "*"
		}
		fmt.Printf("  %2d. customer %-8d score %.5f %s\n", i+1, e.Vertex, e.Score, marker)
	}
	fmt.Println("  (* = also in the exact top-10)")
}

func exactRankOf(rank []float64, v uint32, k int) bool {
	for _, e := range topk.Top(rank, k) {
		if e.Vertex == v {
			return true
		}
	}
	return false
}
