// Benchmarks regenerating each figure of the FrogWild paper's
// evaluation (Section 3), as indexed in README.md. Each BenchmarkFigN*
// target runs the corresponding experiment at the tiny scale and
// reports the figure's key quantity as a custom metric, so
// `go test -bench=Fig -benchmem` both times the reproduction and
// surfaces its headline numbers. The rest are the multicore paths
// (`-bench Parallel -cpu 1,2,4` reads their scaling) and the ablations;
// per-operation and serving costs are measured by the repository
// benchmark (bench/, `bash bench/run.sh`).
package harness_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/harness"
	"repro/internal/montecarlo"
	"repro/internal/pagerank"
)

// benchEnv caches one tiny-scale experiment environment across
// benchmarks (workload generation and exact PageRank are setup, not the
// thing being measured).
var benchEnv = sync.OnceValue(func() *harness.Env {
	return harness.NewEnv(harness.ScaleTiny, 20240613)
})

func runFig(b *testing.B, fig int) []*harness.Table {
	b.Helper()
	env := benchEnv()
	var tables []*harness.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = harness.Figure(env, fig)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tables
}

// lastColRatio reports max/min of a column, a scale-free shape number.
func colRatio(tab *harness.Table, col string) float64 {
	vals, ok := tab.Column(col)
	if !ok || len(vals) == 0 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// BenchmarkFig1TimePerIter regenerates Figure 1(a)–(d): per-iteration
// time, total time, network and CPU versus cluster size. The reported
// metric is the GL-PR-exact to FrogWild-ps=1 network ratio at 24
// machines (the paper reports ≈1000x against ~800x-smaller FrogWild
// messages; shape, not absolute, is the target).
func BenchmarkFig1ClusterSweep(b *testing.B) {
	tables := runFig(b, 1)
	netTab := tables[2] // fig1c
	gl, _ := netTab.Column("GLPR exact")
	fw, _ := netTab.Column("FW ps=1")
	if len(gl) > 0 && fw[len(fw)-1] > 0 {
		b.ReportMetric(gl[len(gl)-1]/fw[len(fw)-1], "netratio/glpr-vs-fw")
	}
}

// BenchmarkFig2AccuracyVsK regenerates Figure 2(a)/(b) and reports
// FrogWild ps=1 captured mass at the first k row.
func BenchmarkFig2AccuracyVsK(b *testing.B) {
	tables := runFig(b, 2)
	if vals, ok := tables[0].Column("FW ps=1"); ok && len(vals) > 0 {
		b.ReportMetric(vals[0], "mass/fw-ps1-k30")
	}
}

// BenchmarkFig3Tradeoff regenerates Figures 3(a)/(b) and 4 (Twitter
// trade-off) and reports the spread of total times across
// configurations.
func BenchmarkFig3Tradeoff(b *testing.B) {
	tables := runFig(b, 3)
	b.ReportMetric(colRatio(tables[0], "total time (s)"), "timespread/max-over-min")
}

// BenchmarkFig5Sparsify regenerates Figure 5 (FrogWild vs uniform
// sparsification).
func BenchmarkFig5Sparsify(b *testing.B) {
	tables := runFig(b, 5)
	b.ReportMetric(colRatio(tables[0], "network bytes"), "netspread/max-over-min")
}

// BenchmarkFig6WalkersIterations regenerates Figure 6(a)–(d)
// (LiveJournal accuracy/time vs walkers and iterations).
func BenchmarkFig6WalkersIterations(b *testing.B) {
	tables := runFig(b, 6)
	if vals, ok := tables[0].Column("FW ps=1"); ok && len(vals) > 0 {
		b.ReportMetric(vals[len(vals)-1], "mass/fw-ps1-maxwalkers")
	}
}

// BenchmarkFig7TradeoffLJ regenerates Figure 7 (LiveJournal trade-off).
func BenchmarkFig7TradeoffLJ(b *testing.B) {
	tables := runFig(b, 7)
	b.ReportMetric(colRatio(tables[0], "network bytes"), "netspread/max-over-min")
}

// BenchmarkFig8NetworkVsWalkers regenerates Figure 8 and reports the
// network growth ratio across the walker sweep (ideal: the 3.5x walker
// ratio).
func BenchmarkFig8NetworkVsWalkers(b *testing.B) {
	tables := runFig(b, 8)
	b.ReportMetric(colRatio(tables[0], "network bytes"), "netratio/1400k-over-400k")
}

// --- Speedup and ablation benchmarks ---

var benchGraph = sync.OnceValue(func() *graph.Graph {
	g, err := gen.PowerLaw(gen.TwitterLike(10000, 7))
	if err != nil {
		panic(err)
	}
	return g
})

var benchLayout = sync.OnceValue(func() *cluster.Layout {
	lay, err := cluster.NewLayout(benchGraph(), 16, nil, 7)
	if err != nil {
		panic(err)
	}
	return lay
})

// reportEngineMetrics attaches the engine numbers of a run: apply
// throughput (vertex/s, from the vertex ops summed over every timed
// iteration — runs seeded differently do different work) and the
// simulated-over-wall time ratio of the final run.
func reportEngineMetrics(b *testing.B, vertexOps int64, last *gas.RunStats) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(vertexOps)/sec, "vertex/s")
	}
	if last.WallSeconds > 0 {
		b.ReportMetric(last.SimSeconds/last.WallSeconds, "simvswall")
	}
}

// benchGraph50k is the graph for the multicore benchmarks: big enough
// (~1.5M edges) that per-iteration work, not scheduling overhead,
// dominates.
var benchGraph50k = sync.OnceValue(func() *graph.Graph {
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 7))
	if err != nil {
		panic(err)
	}
	return g
})

// BenchmarkExactPageRankParallel measures the multicore solver on the
// 50k-vertex twitter-like graph. Its pool is sized from GOMAXPROCS and
// results are bit-identical for any worker count, so
// `go test -bench Parallel -cpu 1,2,4 ./internal/harness/` reads the
// speedup off the -cpu rows.
func BenchmarkExactPageRankParallel(b *testing.B) {
	g := benchGraph50k()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pagerank.Exact(g, pagerank.Options{Tolerance: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceFrogWalkParallel measures the sharded
// single-machine frog walk on the 50k-vertex graph.
func BenchmarkReferenceFrogWalkParallel(b *testing.B) {
	g := benchGraph50k()
	walkers := g.NumVertices() / 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frogwild.SerialWalk(g, walkers, 4, pagerank.DefaultTeleport, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloParallel measures the sharded Monte-Carlo baseline
// (R=1 walker per vertex) on the 50k-vertex graph, reporting walk
// throughput as vertex/s (one walk starts at every vertex).
func BenchmarkMonteCarloParallel(b *testing.B) {
	g := benchGraph50k()
	par := montecarlo.Config{Seed: 1}
	var walks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := montecarlo.Run(g, par)
		if err != nil {
			b.Fatal(err)
		}
		walks += int64(res.Walks)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(walks)/sec, "vertex/s")
	}
}

// benchLayout50k4 partitions the 50k graph over 4 machines, the
// layout BenchmarkFrogWildEngineParallel runs on.
var benchLayout50k4 = sync.OnceValue(func() *cluster.Layout {
	lay, err := cluster.NewLayout(benchGraph50k(), 4, nil, 7)
	if err != nil {
		panic(err)
	}
	return lay
})

// BenchmarkFrogWildEngineParallel measures the engine's machine-level
// parallelism on the 50k twitter-like graph: a full walker-per-vertex
// load so apply/scatter dominate engine overhead. The engine runs its 4
// machines on a pool of min(GOMAXPROCS, 4) workers, so -cpu 1,2,4 gives
// 1, 2 and 4 workers, with bit-identical results; more procs add none.
func BenchmarkFrogWildEngineParallel(b *testing.B) {
	g := benchGraph50k()
	lay := benchLayout50k4()
	var last *frogwild.Result
	var vertexOps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := frogwild.Run(g, frogwild.Config{
			Walkers: g.NumVertices(), Iterations: 4, PS: 0.7, Layout: lay, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
		vertexOps += res.Stats.Net.VertexOps
	}
	reportEngineMetrics(b, vertexOps, last.Stats)
}

// BenchmarkAblationIngress compares the four ingress strategies'
// replication factors (the knob that couples ps to network savings).
func BenchmarkAblationIngress(b *testing.B) {
	g := benchGraph()
	for _, name := range []string{"random", "oblivious", "grid", "hdrf"} {
		b.Run(name, func(b *testing.B) {
			p, err := cluster.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var repl float64
			for i := 0; i < b.N; i++ {
				lay, err := cluster.NewLayout(g, 16, p, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				repl = lay.ReplicationFactor()
			}
			b.ReportMetric(repl, "replication")
		})
	}
}

// BenchmarkAblationScatterMode compares the paper's two frog-routing
// variants at ps=0.4.
func BenchmarkAblationScatterMode(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	for _, mode := range []frogwild.ScatterMode{frogwild.ScatterSplit, frogwild.ScatterBinomial} {
		b.Run(mode.String(), func(b *testing.B) {
			var realized float64
			for i := 0; i < b.N; i++ {
				res, err := frogwild.Run(g, frogwild.Config{
					Walkers: g.NumVertices() / 6, Iterations: 4, PS: 0.4,
					Layout: lay, Seed: uint64(i), Mode: mode,
				})
				if err != nil {
					b.Fatal(err)
				}
				realized = float64(res.TotalFrogs) / float64(g.NumVertices()/6)
			}
			b.ReportMetric(realized, "frogs/requested")
		})
	}
}

// BenchmarkPSSweep measures how the network bill falls with ps.
func BenchmarkPSSweep(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	for _, ps := range []float64{1.0, 0.7, 0.4, 0.1} {
		b.Run(fmt.Sprintf("ps=%.1f", ps), func(b *testing.B) {
			var bytes float64
			for i := 0; i < b.N; i++ {
				res, err := frogwild.Run(g, frogwild.Config{
					Walkers: g.NumVertices() / 6, Iterations: 4, PS: ps,
					Layout: lay, Seed: uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes = float64(res.Stats.Net.TotalBytes)
			}
			b.ReportMetric(bytes, "netbytes")
		})
	}
}

// BenchmarkPersonalizedFrogWild measures the PPR extension.
func BenchmarkPersonalizedFrogWild(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	for i := 0; i < b.N; i++ {
		if _, err := frogwild.RunPPR(g, frogwild.PPRConfig{
			Config:  frogwild.Config{Walkers: 5000, Iterations: 8, PS: 0.7, Layout: lay, Seed: uint64(i)},
			Sources: []graph.VertexID{1, 2, 3},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
