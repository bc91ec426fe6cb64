// Command pagerank computes the PageRank vector of a graph and prints
// the top-k vertices. By default it runs the exact multicore power
// iteration — the ground truth against which FrogWild's approximation
// is judged; with -engine it instead runs the "GraphLab PR" baseline on
// the simulated vertex-cut cluster and reports the engine's metered
// cost. Both paths are bit-identical for any GOMAXPROCS.
//
// Usage:
//
//	pagerank -graph tw.csr.gz -k 20
//	pagerank -graph tw.csr.gz -engine -machines 16
//	gengraph -type rmat -scale 14 -out /tmp/g.csr && pagerank -graph /tmp/g.csr
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	var (
		path     = flag.String("graph", "", "graph file (gstore CSR or edge list; required)")
		k        = flag.Int("k", 20, "how many top vertices to print")
		teleport = flag.Float64("teleport", repro.DefaultTeleport, "teleportation probability pT")
		tol      = flag.Float64("tol", 1e-12, "L1 convergence tolerance")
		engine   = flag.Bool("engine", false, "run GraphLab PR on the simulated cluster instead of the exact solver")
		machines = flag.Int("machines", 16, "simulated cluster size in -engine mode")
		iters    = flag.Int("iters", 0, "-engine mode supersteps (0 = iterate to tolerance)")
		seed     = flag.Uint64("seed", 1, "partitioning/engine seed in -engine mode")
	)
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "pagerank: -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	g, err := repro.LoadGraph(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pagerank: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	if *engine {
		res, err := repro.RunGraphLabPR(g, repro.GraphLabPRConfig{
			Machines:   *machines,
			Teleport:   *teleport,
			Iterations: *iters,
			Tolerance:  *tol,
			Seed:       *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pagerank: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("engine: %d machines, %d supersteps, simulated %.4fs, cpu %.4fs, network %d bytes\n",
			*machines, res.Stats.Supersteps, res.Stats.SimSeconds, res.Stats.CPUSeconds, res.Stats.Net.TotalBytes)
		printTop(res.Rank, *k)
		return
	}
	res, err := repro.ExactPageRank(g, repro.PageRankOptions{Teleport: *teleport, Tolerance: *tol})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pagerank: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("converged=%v iterations=%d residual=%.3e\n", res.Converged, res.Iterations, res.Residual)
	printTop(res.Rank, *k)
}

// printTop prints the k highest-ranked vertices.
func printTop(rank []float64, k int) {
	fmt.Printf("%-8s %-10s %s\n", "rank", "vertex", "pagerank")
	for i, e := range repro.TopK(rank, k) {
		fmt.Printf("%-8d %-10d %.6e\n", i+1, e.Vertex, e.Score)
	}
}
