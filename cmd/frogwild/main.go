// Command frogwild runs the FrogWild top-k PageRank approximation on a
// graph over the simulated vertex-cut cluster, optionally comparing
// against exact PageRank and reporting the engine's network and time
// metrics.
//
// Usage:
//
//	frogwild -graph tw.csr.gz -walkers 100000 -iters 4 -ps 0.7 -machines 16 -k 20 -compare
//	frogwild -gen twitterlike -n 50000 -walkers 8000 -ps 0.4
//	frogwild -gen twitterlike -n 50000 -reference
//
// Every simulated machine shards its gather/apply/scatter loops across
// its share of GOMAXPROCS; tallies are bit-identical for any GOMAXPROCS.
// With -reference the simulated cluster is skipped entirely and the
// single-machine frog-walk process runs instead, sharded across
// GOMAXPROCS cores (likewise bit-identical).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/graph/gio"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func main() {
	var (
		path     = flag.String("graph", "", "graph file (gstore CSR or edge list)")
		genType  = flag.String("gen", "", "generate instead of load: twitterlike|livejournallike")
		n        = flag.Int("n", 50000, "vertex count when generating")
		walkers  = flag.Int("walkers", 0, "number of frogs N (default: vertices/6)")
		iters    = flag.Int("iters", 4, "iterations t (walk cutoff)")
		ps       = flag.Float64("ps", 1.0, "mirror synchronization probability")
		machines = flag.Int("machines", 16, "simulated cluster size")
		part     = flag.String("partitioner", "random", "ingress: random|oblivious|grid")
		mode     = flag.String("mode", "split", "scatter mode: split|binomial")
		erasure  = flag.String("erasure", "at-least-one", "erasure model: at-least-one|independent")
		k        = flag.Int("k", 20, "how many top vertices to print")
		seed     = flag.Uint64("seed", 1, "run seed")
		compare  = flag.Bool("compare", false, "also compute exact PageRank and report accuracy")
		refMode  = flag.Bool("reference", false, "run the single-machine reference walk instead of the simulated cluster")
	)
	flag.Parse()
	p, err := cluster.ByName(*part)
	if err != nil {
		fmt.Fprintf(os.Stderr, "frogwild: %v\n", err)
		os.Exit(2)
	}
	var scatter frogwild.ScatterMode
	switch *mode {
	case "split":
		scatter = frogwild.ScatterSplit
	case "binomial":
		scatter = frogwild.ScatterBinomial
	default:
		fmt.Fprintf(os.Stderr, "frogwild: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	var erasureModel frogwild.Erasure
	switch *erasure {
	case "at-least-one":
		erasureModel = frogwild.ErasureAtLeastOne
	case "independent":
		erasureModel = frogwild.ErasureIndependent
	default:
		fmt.Fprintf(os.Stderr, "frogwild: unknown -erasure %q\n", *erasure)
		os.Exit(2)
	}

	g, err := (&gio.Source{Path: *path, Gen: *genType, N: *n, Seed: *seed}).Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "frogwild: %v\n", err)
		os.Exit(1)
	}
	nWalkers := *walkers
	if nWalkers == 0 {
		nWalkers = g.NumVertices() / 6
		if nWalkers < 100 {
			nWalkers = 100
		}
	}
	if *refMode {
		counts, err := frogwild.SerialWalk(g, nWalkers, *iters, pagerank.DefaultTeleport, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "frogwild: %v\n", err)
			os.Exit(1)
		}
		var total int64
		for _, c := range counts {
			total += c
		}
		est := make([]float64, len(counts))
		for v, c := range counts {
			est[v] = float64(c) / float64(total)
		}
		fmt.Printf("graph: %d vertices, %d edges; single-machine reference walk\n",
			g.NumVertices(), g.NumEdges())
		fmt.Printf("frogwild: %d walkers, %d iterations, %d workers\n", nWalkers, *iters, runtime.GOMAXPROCS(0))
		fmt.Printf("\n%-8s %-10s %-12s %s\n", "rank", "vertex", "estimate", "frogs")
		for i, e := range topk.Top(est, *k) {
			fmt.Printf("%-8d %-10d %.6e %d\n", i+1, e.Vertex, e.Score, counts[e.Vertex])
		}
		if *compare {
			reportAccuracy(g, est, *k)
		}
		return
	}

	res, err := frogwild.Run(g, frogwild.Config{
		Walkers:      nWalkers,
		Iterations:   *iters,
		PS:           *ps,
		Machines:     *machines,
		Partitioner:  p,
		Mode:         scatter,
		ErasureModel: erasureModel,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "frogwild: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("graph: %d vertices, %d edges; cluster: %d machines (%s ingress, replication %.2f)\n",
		g.NumVertices(), g.NumEdges(), *machines, *part, res.Stats.ReplicationFactor)
	fmt.Printf("frogwild: %d walkers, %d iterations, ps=%.2f, mode=%s, erasure=%s\n",
		nWalkers, *iters, *ps, scatter, erasureModel)
	if res.LostFrogs > 0 {
		fmt.Printf("lost frogs (independent erasures): %d of %d\n", res.LostFrogs, nWalkers)
	}
	fmt.Printf("simulated: total %.4fs (%.4fs/iter), cpu %.4fs, network %d bytes\n",
		res.Stats.SimSeconds, res.Stats.SimSeconds/float64(res.Stats.Supersteps),
		res.Stats.CPUSeconds, res.Stats.Net.TotalBytes)
	fmt.Printf("wall clock: %.3fs\n", res.Stats.WallSeconds)

	fmt.Printf("\n%-8s %-10s %-12s %s\n", "rank", "vertex", "estimate", "frogs")
	for i, e := range topk.Top(res.Estimate, *k) {
		fmt.Printf("%-8d %-10d %.6e %d\n", i+1, e.Vertex, e.Score, res.Counts[e.Vertex])
	}

	if *compare {
		reportAccuracy(g, res.Estimate, *k)
	}
}

// reportAccuracy computes exact PageRank and prints the paper's two
// accuracy metrics for the given estimate.
func reportAccuracy(g *graph.Graph, estimate []float64, k int) {
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "frogwild: exact pagerank: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\naccuracy vs exact PageRank:\n")
	for _, kk := range []int{10, k, 100} {
		if kk > g.NumVertices() {
			continue
		}
		fmt.Printf("  k=%-5d mass captured %.4f   exact identification %.4f\n",
			kk,
			topk.NormalizedCapturedMass(exact.Rank, estimate, kk),
			topk.ExactIdentification(exact.Rank, estimate, kk))
	}
}
