// Benchmarks regenerating each figure of the FrogWild paper's
// evaluation (Section 3), as indexed in DESIGN.md. Each BenchmarkFigN*
// target runs the corresponding experiment at the tiny scale and
// reports the figure's key quantity as a custom metric, so
// `go test -bench=Fig -benchmem` both times the reproduction and
// surfaces its headline numbers. The Benchmark*Op targets measure the
// core per-operation costs of the engine and algorithms.
package repro_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/serve"
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

// --- Core operation benchmarks ---

var benchGraph = sync.OnceValue(func() *repro.Graph {
	g, err := repro.TwitterLikeGraph(10000, 7)
	if err != nil {
		panic(err)
	}
	return g
})

var benchLayout = sync.OnceValue(func() *repro.Layout {
	lay, err := repro.NewLayout(benchGraph(), 16, nil, 7)
	if err != nil {
		panic(err)
	}
	return lay
})

// reportEngineMetrics attaches the bench job's tracked engine numbers:
// apply throughput (vertex/s, from the vertex ops summed over every
// timed iteration — runs seeded differently do different work) and the
// simulated-over-wall time ratio of the final run.
func reportEngineMetrics(b *testing.B, vertexOps int64, last *repro.RunStats) {
	b.Helper()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(vertexOps)/sec, "vertex/s")
	}
	if last.WallSeconds > 0 {
		b.ReportMetric(last.SimSeconds/last.WallSeconds, "simvswall")
	}
}

// BenchmarkFrogWildRun measures a complete FrogWild run (4 iterations,
// n/6 walkers, 16 machines) excluding ingress.
func BenchmarkFrogWildRun(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	var last *repro.FrogWildResult
	var vertexOps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := repro.RunFrogWild(g, repro.FrogWildConfig{
			Walkers: g.NumVertices() / 6, Iterations: 4, PS: 0.7, Layout: lay, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
		vertexOps += res.Stats.Net.VertexOps
	}
	reportEngineMetrics(b, vertexOps, last.Stats)
}

// BenchmarkGraphLabPRIteration measures one synchronous PageRank
// superstep on the engine (per-iteration cost, the paper's Figure 1(a)
// baseline quantity).
func BenchmarkGraphLabPRIteration(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	var last *repro.GraphLabPRResult
	var vertexOps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := repro.RunGraphLabPR(g, repro.GraphLabPRConfig{
			Layout: lay, Iterations: 1, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
		vertexOps += res.Stats.Net.VertexOps
	}
	reportEngineMetrics(b, vertexOps, last.Stats)
}

// BenchmarkExactPageRank measures the serial ground-truth solver.
func BenchmarkExactPageRank(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.ExactPageRank(g, repro.PageRankOptions{Tolerance: 1e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialFrogWalk measures the single-machine reference
// implementation (no engine overhead): the baseline for judging the
// simulator's bookkeeping cost.
func BenchmarkSerialFrogWalk(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.SerialFrogWalk(g, g.NumVertices()/6, 4, repro.DefaultTeleport, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraph50k is the graph for the serial-vs-parallel speedup
// benchmarks: big enough (~1.5M edges) that per-iteration work, not
// scheduling overhead, dominates.
var benchGraph50k = sync.OnceValue(func() *repro.Graph {
	g, err := repro.TwitterLikeGraph(50000, 7)
	if err != nil {
		panic(err)
	}
	return g
})

// timeOnce measures fn once; used to cache each parallel benchmark's
// untimed Workers=1 baseline so it is not re-run every time the
// framework re-invokes the benchmark with a larger b.N.
func timeOnce(fn func() error) func() time.Duration {
	return sync.OnceValue(func() time.Duration {
		start := time.Now()
		if err := fn(); err != nil {
			panic(err)
		}
		return time.Since(start)
	})
}

// reportSpeedup attaches the serial-over-parallel throughput ratio.
func reportSpeedup(b *testing.B, serial time.Duration) {
	perOp := b.Elapsed().Seconds() / float64(b.N)
	if perOp > 0 {
		b.ReportMetric(serial.Seconds()/perOp, "speedup/serial-vs-parallel")
	}
}

var serialPageRankDur = timeOnce(func() error {
	_, err := repro.ExactPageRank(benchGraph50k(), repro.PageRankOptions{Tolerance: 1e-9, Workers: 1})
	return err
})

var serialFrogWalkDur = timeOnce(func() error {
	g := benchGraph50k()
	_, err := repro.SerialFrogWalkParallel(g, g.NumVertices()/6, 4, repro.DefaultTeleport, 1, 1)
	return err
})

var serialMonteCarloDur = timeOnce(func() error {
	_, err := repro.RunMonteCarloPR(benchGraph50k(), repro.MonteCarloConfig{Seed: 1, Workers: 1})
	return err
})

// BenchmarkExactPageRankParallel measures the multicore solver on the
// 50k-vertex twitter-like graph and reports its speedup over the same
// solve at Workers=1. Results are bit-identical for any worker count,
// so this measures pure throughput.
func BenchmarkExactPageRankParallel(b *testing.B) {
	g := benchGraph50k()
	serialDur := serialPageRankDur()
	par := repro.PageRankOptions{Tolerance: 1e-9} // Workers 0 = all cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.ExactPageRank(g, par); err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedup(b, serialDur)
}

// BenchmarkSerialFrogWalkParallel measures the sharded single-machine
// frog walk on the 50k-vertex graph and reports its speedup over one
// worker.
func BenchmarkSerialFrogWalkParallel(b *testing.B) {
	g := benchGraph50k()
	walkers := g.NumVertices() / 6
	serialDur := serialFrogWalkDur()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.SerialFrogWalkParallel(g, walkers, 4, repro.DefaultTeleport, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	reportSpeedup(b, serialDur)
}

// BenchmarkMonteCarloParallel measures the sharded Monte-Carlo baseline
// (R=1 walker per vertex) on the 50k-vertex graph with speedup over one
// worker, reporting walk throughput as vertex/s (one walk starts at
// every vertex).
func BenchmarkMonteCarloParallel(b *testing.B) {
	g := benchGraph50k()
	serialDur := serialMonteCarloDur()
	par := repro.MonteCarloConfig{Seed: 1}
	var walks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := repro.RunMonteCarloPR(g, par)
		if err != nil {
			b.Fatal(err)
		}
		walks += int64(res.Walks)
	}
	reportSpeedup(b, serialDur)
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(walks)/sec, "vertex/s")
	}
}

// benchLayout50k4 partitions the 50k graph over 4 machines — few enough
// that multi-core CI runners have cores left over for per-machine
// workers, which is what BenchmarkFrogWildEngineWorkers measures.
var benchLayout50k4 = sync.OnceValue(func() *repro.Layout {
	lay, err := repro.NewLayout(benchGraph50k(), 4, nil, 7)
	if err != nil {
		panic(err)
	}
	return lay
})

// engineFrogWild runs the workers-sweep FrogWild configuration: a full
// walker-per-vertex load so apply/scatter dominate engine overhead.
func engineFrogWild(workers int) (*repro.FrogWildResult, error) {
	g := benchGraph50k()
	return repro.RunFrogWild(g, repro.FrogWildConfig{
		Walkers: g.NumVertices(), Iterations: 4, PS: 0.7,
		Layout: benchLayout50k4(), Seed: 1, WorkersPerMachine: workers,
	})
}

var serialEngineFrogWildDur = timeOnce(func() error {
	_, err := engineFrogWild(1)
	return err
})

// BenchmarkFrogWildEngineWorkers measures the engine's intra-machine
// sharding on the 50k twitter-like graph: the same bit-identical run at
// increasing WorkersPerMachine, each reporting its speedup over the
// fully serial per-machine engine (workers=1). On a single-core runner
// the ratio stays ≈1; with spare cores it rises.
func BenchmarkFrogWildEngineWorkers(b *testing.B) {
	benchLayout50k4() // build the layout outside the timed baseline
	serial := serialEngineFrogWildDur()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last *repro.FrogWildResult
			var vertexOps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := engineFrogWild(workers)
				if err != nil {
					b.Fatal(err)
				}
				last = res
				vertexOps += res.Stats.Net.VertexOps
			}
			reportSpeedup(b, serial)
			reportEngineMetrics(b, vertexOps, last.Stats)
		})
	}
}

// --- Serving-path benchmarks (internal/serve) ---

// benchStore caches one FrogWild snapshot of the 50k twitter-like graph,
// published to a store. Building it is setup, not the thing measured.
var benchStore = sync.OnceValue(func() *serve.Store {
	snap, err := repro.NewSnapshot(benchGraph50k(), repro.SnapshotConfig{
		Engine:   repro.ServeEngineFrogWild,
		Machines: 4,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	store := serve.NewStore()
	store.Publish(snap)
	return store
})

// benchServe caches one query service over benchStore: the HTTP API
// over a real listener.
var benchServe = sync.OnceValue(func() *httptest.Server {
	srv := serve.NewServer(benchStore(), serve.ServerOptions{})
	return httptest.NewServer(srv.Handler())
})

// benchServeGet issues one GET and drains the body (keep-alive reuse).
// It reports failures with b.Error — not b.Fatal, which must not be
// called from RunParallel worker goroutines — and returns false so the
// worker can stop.
func benchServeGet(b *testing.B, client *http.Client, url string) bool {
	resp, err := client.Get(url)
	if err != nil {
		b.Error(err)
		return false
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		resp.Body.Close()
		b.Error(err)
		return false
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Errorf("status %d", resp.StatusCode)
		return false
	}
	return true
}

// BenchmarkServeTopK measures end-to-end /v1/topk throughput against
// the 50k-vertex twitter-like graph, over real HTTP with concurrent
// clients, reporting queries/s. The "hot" case repeats one k (per-k
// body cache path, the expected production shape); "sweep" cycles k
// over 1..100 (selection + marshal per distinct k per epoch, then
// cached).
func BenchmarkServeTopK(b *testing.B) {
	ts := benchServe()
	b.Run("hot-k20", func(b *testing.B) {
		url := ts.URL + "/v1/topk?k=20"
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := &http.Client{}
			for pb.Next() {
				if !benchServeGet(b, client, url) {
					return
				}
			}
		})
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "queries/s")
		}
	})
	b.Run("sweep-k1-100", func(b *testing.B) {
		var next atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			client := &http.Client{}
			for pb.Next() {
				k := int(next.Add(1)%100) + 1
				if !benchServeGet(b, client, fmt.Sprintf("%s/v1/topk?k=%d", ts.URL, k)) {
					return
				}
			}
		})
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "queries/s")
		}
	})
}

// BenchmarkServeRank measures the uncached point-query endpoint
// (marshal per request, no per-k cache to hide behind).
func BenchmarkServeRank(b *testing.B) {
	ts := benchServe()
	var next atomic.Int64
	n := benchGraph50k().NumVertices()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		for pb.Next() {
			v := int(next.Add(1)) % n
			if !benchServeGet(b, client, fmt.Sprintf("%s/v1/rank?vertex=%d", ts.URL, v)) {
				return
			}
		}
	})
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "queries/s")
	}
}

// benchLoadHandler caches the in-process serving handler over the 50k
// graph for the load-generator benchmark (snapshot build is setup).
var benchLoadHandler = sync.OnceValue(func() http.Handler {
	handler, err := repro.NewServerHandler(benchGraph50k(), repro.SnapshotConfig{
		Engine:   repro.ServeEngineFrogWild,
		Machines: 4,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	return handler
})

// BenchmarkLoadGenServe drives the serving handler with the
// deterministic Zipf-skewed mixed workload — the same shape the CI
// perf gate runs via cmd/prload — and reports aggregate queries/s plus
// the p99 of the mix. One b.N iteration is one complete measured run
// (2000 queries after 200 warmup), so -benchtime=1x in CI costs one
// run.
func BenchmarkLoadGenServe(b *testing.B) {
	handler := benchLoadHandler()
	cfg := repro.LoadConfig{
		Seed:        1,
		Queries:     2000,
		Warmup:      200,
		Concurrency: 8,
		Vertices:    benchGraph50k().NumVertices(),
	}
	var last *repro.LoadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := repro.RunLoadTest(context.Background(), cfg, handler)
		if err != nil {
			b.Fatal(err)
		}
		if total := rep.Total(); total.Errors > 0 {
			b.Fatalf("%d load-test queries failed", total.Errors)
		}
		last = rep
	}
	total := last.Total()
	b.ReportMetric(last.QueriesPerSecond(), "queries/s")
	b.ReportMetric(float64(total.Hist.QuantileDuration(0.99))/float64(time.Millisecond), "p99/ms")
}

// BenchmarkSnapshotTopK measures the in-process answer path (index
// prefix copy) without HTTP, the serving layer's floor.
func BenchmarkSnapshotTopK(b *testing.B) {
	snap, err := repro.NewSnapshot(benchGraph50k(), repro.SnapshotConfig{
		Engine:   repro.ServeEngineFrogWild,
		Machines: 4,
		Seed:     7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := snap.TopK(20); len(got) != 20 {
			b.Fatal("short answer")
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "queries/s")
	}
}

// --- Sharded-plane benchmarks (internal/router) ---

// benchRouter caches a router over four shards of benchStore, each
// behind its own TCP loopback listener: the path the repo benchmark's
// sharded_tcp workload drives, without the HTTP front.
var benchRouter = sync.OnceValue(func() *router.Router {
	const shards = 4
	owned, err := router.Partition(benchGraph50k(), shards, 7)
	if err != nil {
		panic(err)
	}
	clients := make([]*router.ShardClient, shards)
	for i := range clients {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		go router.NewShardServer(i, shards, owned[i], benchStore()).Serve(context.Background(), ln) //nolint:errcheck // lives as long as the process
		addr := ln.Addr().String()
		clients[i] = router.NewShardClient(i, addr, router.DialTCP(addr), time.Second)
	}
	return router.New(clients, router.Options{})
})

// discardWriter is a ResponseWriter that keeps the status only, so a
// handler benchmark counts the handler's allocations, not a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// benchRoute times Router.ServeHTTP on one URL: fan-out to four shards
// over loopback, merge, marshal.
func benchRoute(b *testing.B, url string) {
	rt := benchRouter()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	w := &discardWriter{header: make(http.Header)}
	rt.ServeHTTP(w, req) // dial the pooled connections outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.status = http.StatusOK
		rt.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "queries/s")
	}
}

// BenchmarkRouterTopK measures a sharded /v1/topk at the three sizes
// that separate its costs: k=1 is the fan-out floor, k=100 is dominated
// by frames and the merge.
func BenchmarkRouterTopK(b *testing.B) {
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchRoute(b, fmt.Sprintf("/v1/topk?k=%d", k))
		})
	}
}

// BenchmarkRouterRank measures a sharded point query: the same fan-out
// with no entries in any frame.
func BenchmarkRouterRank(b *testing.B) {
	benchRoute(b, "/v1/rank?vertex=7")
}

// --- Storage-backend benchmarks (PR 5: gstore + snapshot persistence) ---

// benchGraphFiles writes the 50k benchmark graph once in every on-disk
// format the loaders speak, so the open benchmarks measure loads, not
// setup.
var benchGraphFiles = sync.OnceValue(func() map[string]string {
	g := benchGraph50k()
	dir, err := os.MkdirTemp("", "bench-gstore")
	if err != nil {
		panic(err)
	}
	files := map[string]string{
		"edgelist": filepath.Join(dir, "g.txt"),
		"binary":   filepath.Join(dir, "g.bin"),
		"csr":      filepath.Join(dir, "g.csr"),
	}
	if err := repro.SaveGraph(files["edgelist"], g); err != nil {
		panic(err)
	}
	if err := repro.SaveGraphBinary(files["binary"], g); err != nil {
		panic(err)
	}
	if err := repro.SaveGraphCSR(files["csr"], g); err != nil {
		panic(err)
	}
	return files
})

// edgelistRebuildDur times the cold edge-list rebuild of the 50k graph
// once — the baseline the mmap speedup metric is reported against.
var edgelistRebuildDur = timeOnce(func() error {
	_, err := repro.LoadGraph(benchGraphFiles()["edgelist"])
	return err
})

// BenchmarkGraphOpen compares the three ways to get the 50k-vertex
// twitter-like graph (~1.5M edges) into memory: parsing the edge-list
// text, rebuilding from the FWG1 binary edge list, and mmap-opening
// the gstore CSR file (checksum-verified, zero-copy). The mmap
// subbenchmark reports its speedup over the cold edge-list rebuild —
// the acceptance floor is 10x — and opens/s for the artifact
// trajectory.
func BenchmarkGraphOpen(b *testing.B) {
	files := benchGraphFiles()
	open := func(b *testing.B, path string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			g, err := repro.LoadGraph(path)
			if err != nil {
				b.Fatal(err)
			}
			g.Close()
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "opens/s")
		}
	}
	b.Run("edgelist-rebuild", func(b *testing.B) { open(b, files["edgelist"]) })
	b.Run("binary-rebuild", func(b *testing.B) { open(b, files["binary"]) })
	b.Run("gstore-mmap", func(b *testing.B) {
		rebuild := edgelistRebuildDur() // untimed baseline measurement
		b.ResetTimer()
		open(b, files["csr"])
		perOp := b.Elapsed().Seconds() / float64(b.N)
		if perOp > 0 {
			b.ReportMetric(rebuild.Seconds()/perOp, "speedup/mmap-vs-rebuild")
		}
	})
}

// BenchmarkServeStart measures time-to-first-answer for the serving
// stack on the 50k graph: "cold" builds the FrogWild snapshot from
// scratch before the first /v1/topk answer; "warm" restores the last
// persisted snapshot from disk (the prserve -snapshot-dir path). The
// warm subbenchmark reports its speedup over one cold start, the
// number restarts and scale-out care about.
func BenchmarkServeStart(b *testing.B) {
	g := benchGraph50k()
	cfg := serve.ServiceConfig{
		Build: serve.BuildConfig{Engine: serve.EngineFrogWild, Machines: 4, Seed: 7},
	}
	firstQuery := func(b *testing.B, cfg serve.ServiceConfig) {
		b.Helper()
		srv, _, err := serve.NewService(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/topk?k=20", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}

	dir, err := os.MkdirTemp("", "bench-warm")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var coldDur time.Duration

	b.Run("cold-firstquery", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			firstQuery(b, cfg)
		}
		coldDur = time.Since(start) / time.Duration(b.N)
		b.ReportMetric(float64(coldDur)/float64(time.Millisecond), "firstquery-ms")
	})
	b.Run("warm-firstquery", func(b *testing.B) {
		// Persist one snapshot, then every iteration warm-starts from
		// it. Guard against the subbenchmark running without the cold
		// one (e.g. -bench filtering) by timing a cold start then.
		warmCfg := cfg
		warmCfg.SnapshotDir = dir
		if coldDur == 0 {
			start := time.Now()
			firstQuery(b, cfg)
			coldDur = time.Since(start)
		}
		if _, err := os.Stat(serve.SnapshotPath(dir)); err != nil {
			srv, _, err := serve.NewService(g, warmCfg)
			if err != nil {
				b.Fatal(err)
			}
			if srv.Snapshot().WarmStart {
				b.Fatal("seed service warm-started unexpectedly")
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			firstQuery(b, warmCfg)
		}
		b.StopTimer()
		perOp := b.Elapsed() / time.Duration(b.N)
		b.ReportMetric(float64(perOp)/float64(time.Millisecond), "firstquery-ms")
		if perOp > 0 {
			b.ReportMetric(float64(coldDur)/float64(perOp), "speedup/warm-vs-cold")
		}
	})
}

// BenchmarkIngress measures vertex-cut partitioning (random ingress,
// 16 machines).
func BenchmarkIngress(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.NewLayout(g, 16, nil, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIngress compares the four ingress strategies'
// replication factors (the knob that couples ps to network savings).
func BenchmarkAblationIngress(b *testing.B) {
	g := benchGraph()
	for _, name := range []string{"random", "oblivious", "grid", "hdrf"} {
		b.Run(name, func(b *testing.B) {
			p, err := repro.PartitionerByName(name)
			if err != nil {
				b.Fatal(err)
			}
			var repl float64
			for i := 0; i < b.N; i++ {
				lay, err := repro.NewLayout(g, 16, p, uint64(i))
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
	for _, mode := range []repro.ScatterMode{repro.ScatterSplit, repro.ScatterBinomial} {
		b.Run(mode.String(), func(b *testing.B) {
			var realized float64
			for i := 0; i < b.N; i++ {
				res, err := repro.RunFrogWild(g, repro.FrogWildConfig{
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
				res, err := repro.RunFrogWild(g, repro.FrogWildConfig{
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

// BenchmarkGossip measures rumor spreading on the engine.
func BenchmarkGossip(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunGossip(g, repro.GossipConfig{
			Origin: 0, Rounds: 10, PS: 0.7, Layout: lay, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersonalizedFrogWild measures the PPR extension.
func BenchmarkPersonalizedFrogWild(b *testing.B) {
	g := benchGraph()
	lay := benchLayout()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RunPersonalizedFrogWild(g, repro.PPRConfig{
			Config:  repro.FrogWildConfig{Walkers: 5000, Iterations: 8, PS: 0.7, Layout: lay, Seed: uint64(i)},
			Sources: []repro.VertexID{1, 2, 3},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
