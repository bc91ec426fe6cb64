// Webcrawl: rank pages of a synthetic web graph (R-MAT, the standard
// web-graph model) and compare every approach the paper evaluates on
// one table: FrogWild, GraphLab PR run exactly / for 1-2 iterations,
// and uniform sparsification — time, network and top-100 accuracy.
// This is the paper's Figures 3 and 5 condensed into one runnable
// program.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/glpr"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/montecarlo"
	"repro/internal/pagerank"
	"repro/internal/sparsify"
	"repro/internal/topk"
)

func main() {
	// 2^15 = 32768 pages, ~16 links per page.
	g, err := gen.RMAT(gen.DefaultRMAT(15, 16, 99))
	if err != nil {
		log.Fatal(err)
	}
	stats := graph.ComputeStats(g)
	fmt.Printf("web graph (R-MAT): %d pages, %d links, max in-degree %d\n\n",
		stats.NumVertices, stats.NumEdges, stats.MaxInDeg)

	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		log.Fatal(err)
	}

	const machines = 16
	lay, err := cluster.NewLayout(g, machines, nil, 99)
	if err != nil {
		log.Fatal(err)
	}
	walkers := g.NumVertices() / 6

	type row struct {
		name     string
		simSec   float64
		netBytes int64
		acc      float64
	}
	var rows []row

	for _, spec := range []struct {
		name  string
		iters int
	}{{"GraphLab PR exact", 0}, {"GraphLab PR 2 iters", 2}, {"GraphLab PR 1 iter", 1}} {
		cfg := glpr.Config{Layout: lay, Seed: 99}
		cfg.Iterations = spec.iters
		res, err := glpr.Run(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{spec.name, res.Stats.SimSeconds, res.Stats.Net.TotalBytes,
			topk.NormalizedCapturedMass(exact.Rank, res.Rank, 100)})
	}
	for _, ps := range []float64{1.0, 0.4} {
		res, err := frogwild.Run(g, frogwild.Config{
			Walkers: walkers, Iterations: 4, PS: ps, Layout: lay, Seed: 99,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{fmt.Sprintf("FrogWild ps=%.1f", ps),
			res.Stats.SimSeconds, res.Stats.Net.TotalBytes,
			topk.NormalizedCapturedMass(exact.Rank, res.Estimate, 100)})
	}
	for _, q := range []float64{0.7, 0.4} {
		res, err := sparsify.Run(g, sparsify.Config{
			Keep: q, Iterations: 2, Machines: machines, Seed: 99,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{fmt.Sprintf("sparsify q=%.1f + 2 iters", q),
			res.Stats.SimSeconds, res.Stats.Net.TotalBytes,
			topk.NormalizedCapturedMass(exact.Rank, res.Rank, 100)})
	}
	mc, err := montecarlo.Run(g, montecarlo.Config{Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	rows = append(rows, row{"serial MC (1 walk/vertex)", 0, 0,
		topk.NormalizedCapturedMass(exact.Rank, mc.Estimate, 100)})

	fmt.Printf("%-26s %-14s %-16s %s\n", "method", "sim time (s)", "network bytes", "mass captured k=100")
	for _, r := range rows {
		net := fmt.Sprintf("%d", r.netBytes)
		sim := fmt.Sprintf("%.4f", r.simSec)
		if r.netBytes == 0 {
			net, sim = "n/a (serial)", "n/a"
		}
		fmt.Printf("%-26s %-14s %-16s %.4f\n", r.name, sim, net, r.acc)
	}
	fmt.Printf("\n(walkers=%d, cluster=%d machines; FrogWild should dominate the\n", walkers, machines)
	fmt.Printf(" network column at comparable accuracy — the paper's headline result)\n")
}
