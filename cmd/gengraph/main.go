// Command gengraph generates synthetic directed graphs in the shapes
// the FrogWild reproduction uses (power-law "twitterlike" /
// "livejournallike" presets, custom power-law, R-MAT, Erdős–Rényi) and
// writes them as edge-list text or the mmap-able gstore CSR format
// (gzipped when the output path ends in .gz).
//
// Usage:
//
//	gengraph -type twitterlike -n 100000 -seed 42 -out tw.csr.gz
//	gengraph -type twitterlike -n 100000 -out tw.csr
//	gengraph -type powerlaw -n 50000 -mean 12 -degexp 2.1 -out g.txt
//	gengraph -type rmat -scale 18 -edgefactor 16 -format csr -out rmat.graph
//	gengraph -type er -n 10000 -m 100000 -out er.txt.gz
//
// -format selects the output encoding explicitly: edgelist, or csr
// (the gstore format every -graph flag opens by mmap). The default,
// auto, goes by the file name's suffix: .csr and .csr.gz get csr,
// everything else edge-list text. Unknown values, and the .bin suffix
// of the binary edge list this tool used to write, are a usage error
// (exit code 2).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body. Exit codes: 0 success, 1 runtime
// failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		typ        = fs.String("type", "twitterlike", "graph type: twitterlike|livejournallike|powerlaw|rmat|er")
		n          = fs.Int("n", 100000, "vertex count (twitterlike/livejournallike/powerlaw/er)")
		m          = fs.Int64("m", 0, "edge count (er; default 10n)")
		mean       = fs.Float64("mean", 12, "mean out-degree (powerlaw)")
		degExp     = fs.Float64("degexp", 2.1, "out-degree Zipf exponent (powerlaw)")
		prefExp    = fs.Float64("prefexp", 1.0, "destination popularity exponent (powerlaw)")
		scale      = fs.Int("scale", 16, "log2 vertex count (rmat)")
		edgeFactor = fs.Int("edgefactor", 16, "edges per vertex (rmat)")
		seed       = fs.Uint64("seed", 1, "generator seed")
		out        = fs.String("out", "", "output path (required; .gz compresses)")
		format     = fs.String("format", "auto", "output format: auto|edgelist|csr (auto: .csr selects csr, else edge list)")
		stats      = fs.Bool("stats", true, "print graph statistics")
		target     = fs.String("target-bytes", "", "size -n so the gstore CSR encoding lands near this byte budget (e.g. 256MiB); overrides -n, rmat unsupported")
		relabel    = fs.Bool("relabel", false, "degree-order vertex rows before saving (csr: clusters hot vertices onto hot pages, external ids unchanged)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *target != "" {
		tb, err := repro.ParseByteSize(*target)
		if err != nil {
			fmt.Fprintf(stderr, "gengraph: -target-bytes: %v\n", err)
			fs.Usage()
			return 2
		}
		sized, err := sizeForBytes(tb, *typ, *mean, *m, *relabel)
		if err != nil {
			fmt.Fprintf(stderr, "gengraph: %v\n", err)
			fs.Usage()
			return 2
		}
		*n = sized
	}
	if *out == "" {
		fmt.Fprintln(stderr, "gengraph: -out is required")
		fs.Usage()
		return 2
	}
	// Resolve the writer up front so a bad -format is rejected before
	// minutes of generation work.
	var save func(string, *repro.Graph) error
	name := strings.TrimSuffix(*out, ".gz")
	switch {
	case *format == "csr", *format == "auto" && strings.HasSuffix(name, ".csr"):
		save = repro.SaveGraphCSR
	case *format == "auto" && strings.HasSuffix(name, ".bin"):
		fmt.Fprintf(stderr, "gengraph: %s: the .bin binary edge list is no longer written; use -format csr (or a .csr name)\n", *out)
		fs.Usage()
		return 2
	case *format == "auto", *format == "edgelist":
		save = repro.SaveGraph
	default:
		fmt.Fprintf(stderr, "gengraph: unknown -format %q (want auto|edgelist|csr)\n", *format)
		fs.Usage()
		return 2
	}

	var (
		g   *repro.Graph
		err error
	)
	switch *typ {
	case "twitterlike":
		g, err = repro.TwitterLikeGraph(*n, *seed)
	case "livejournallike":
		g, err = repro.LiveJournalLikeGraph(*n, *seed)
	case "powerlaw":
		g, err = repro.PowerLawGraph(repro.PowerLawConfig{
			N: *n, MeanOutDeg: *mean, DegExponent: *degExp, PrefExponent: *prefExp, Seed: *seed,
		})
	case "rmat":
		g, err = repro.RMATGraph(*scale, *edgeFactor, *seed)
	case "er":
		edges := *m
		if edges == 0 {
			edges = int64(*n) * 10
		}
		g, err = repro.ErdosRenyiGraph(*n, edges, *seed)
	default:
		fmt.Fprintf(stderr, "gengraph: unknown -type %q\n", *typ)
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "gengraph: %v\n", err)
		return 1
	}
	if *relabel {
		rg, err := repro.RelabelGraph(g)
		if err != nil {
			fmt.Fprintf(stderr, "gengraph: relabeling: %v\n", err)
			return 1
		}
		g.Close()
		g = rg
	}

	if err := save(*out, g); err != nil {
		fmt.Fprintf(stderr, "gengraph: writing %s: %v\n", *out, err)
		return 1
	}
	if *stats {
		s := repro.ComputeGraphStats(g)
		fmt.Fprintf(stdout, "wrote %s: %d vertices, %d edges, mean deg %.2f, max out %d, max in %d, gini %.3f\n",
			*out, s.NumVertices, s.NumEdges, s.MeanDeg, s.MaxOutDeg, s.MaxInDeg, s.GiniOut)
	}
	return 0
}

// sizeForBytes solves the gstore CSR encoding size for the vertex
// count: two offset arrays cost 16 bytes per vertex, the two adjacency
// arrays 8 bytes per edge (out + in copies), and relabeled files add a
// 4-byte permutation entry per vertex. Generators whose edge count
// isn't proportional to n (rmat's is fixed by -scale; er with an
// explicit -m) can't be sized this way and are an error.
func sizeForBytes(target int64, typ string, mean float64, m int64, relabel bool) (int, error) {
	var meanDeg float64
	switch typ {
	case "twitterlike":
		meanDeg = 30
	case "livejournallike":
		meanDeg = 14
	case "powerlaw":
		meanDeg = mean
	case "er":
		if m != 0 {
			return 0, fmt.Errorf("-target-bytes sizes -n from the mean degree; drop -m (er defaults to 10n edges)")
		}
		meanDeg = 10
	case "rmat":
		return 0, fmt.Errorf("-target-bytes cannot size rmat (vertex count is fixed by -scale)")
	default:
		return 0, fmt.Errorf("unknown -type %q", typ)
	}
	perVertex := 16 + 8*meanDeg
	if relabel {
		perVertex += 4
	}
	n := int(float64(target-256) / perVertex)
	if n < 2 {
		return 0, fmt.Errorf("-target-bytes %d too small for type %s (~%.0f bytes/vertex)", target, typ, perVertex)
	}
	return n, nil
}
