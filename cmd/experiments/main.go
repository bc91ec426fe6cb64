// Command experiments regenerates the FrogWild paper's evaluation
// figures (Section 3) on the simulated cluster and prints the same
// series the paper plots, as aligned tables (optionally CSV files).
//
// Usage:
//
//	experiments -fig all -scale small
//	experiments -fig 1 -scale medium -seed 7
//	experiments -fig 6 -csv out/
//
// Figure numbering follows the paper: 1 (time/network/CPU vs cluster
// size), 2 (accuracy vs k), 3/4 (accuracy-time-network trade-off,
// Twitter), 5 (vs uniform sparsification), 6 (accuracy/time vs walkers
// and iterations, LiveJournal), 7 (trade-off, LiveJournal), 8 (network
// vs walkers).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to run: all|1|2|3|4|5|6|7|8|ablation")
		scale  = flag.String("scale", "small", "workload scale: tiny|small|medium|large")
		seed   = flag.Uint64("seed", 12345, "experiment seed")
		csvDir = flag.String("csv", "", "also write each table as CSV into this directory")
	)
	flag.Parse()

	sc, err := harness.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	env := harness.NewEnv(sc, *seed)

	start := time.Now()
	var tables []*harness.Table
	switch {
	case *fig == "all":
		tables, err = harness.All(env)
	case *fig == "ablation":
		tables, err = harness.Ablations(env)
	default:
		var figNum int
		figNum, err = strconv.Atoi(*fig)
		if err == nil {
			tables, err = harness.Figure(env, figNum)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	for _, t := range tables {
		if err := t.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, t.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := t.CSV(f); err != nil {
				f.Close()
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("ran %d tables at scale %s in %.1fs (seed %d)\n",
		len(tables), sc, time.Since(start).Seconds(), *seed)
}
