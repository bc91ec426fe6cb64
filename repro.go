// Package repro is a from-scratch Go reproduction of
//
//	FrogWild! – Fast PageRank Approximations on Graph Engines
//	(Mitliagkas, Borokhovich, Dimakis, Caramanis — VLDB 2015)
//
// It provides:
//
//   - FrogWild itself: fast approximation of the top-k PageRank
//     vertices via N discrete random walkers ("frogs") executed on a
//     simulated vertex-cut graph engine with the paper's
//     partial-mirror-synchronization knob ps (RunFrogWild).
//   - The baselines the paper compares against: synchronous
//     "GraphLab PR" power iteration on the same engine (RunGraphLabPR),
//     uniform graph sparsification followed by PageRank
//     (RunSparsifiedPR), and serial Monte-Carlo PageRank
//     (RunMonteCarloPR).
//   - Exact serial PageRank as ground truth (ExactPageRank).
//   - Synthetic power-law graph generators standing in for the paper's
//     Twitter/LiveJournal datasets, graph I/O, and the paper's two
//     accuracy metrics (captured mass and exact identification).
//
// # Quick start
//
//	g, _ := repro.TwitterLikeGraph(100000, 42)
//	res, _ := repro.RunFrogWild(g, repro.FrogWildConfig{
//		Walkers:    g.NumVertices() / 6,
//		Iterations: 4,
//		PS:         0.7,
//		Machines:   16,
//		Seed:       42,
//	})
//	top := repro.TopK(res.Estimate, 20)
//
// Everything is deterministic under a fixed seed, uses only the
// standard library, and runs on a laptop: the "cluster" is simulated
// (one goroutine per machine with metered network traffic and a
// calibrated cost model), which reproduces the paper's network, CPU and
// accuracy comparisons in shape rather than absolute seconds.
package repro

import (
	"context"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/gas"
	"repro/internal/glpr"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gio"
	"repro/internal/graph/gstore"
	"repro/internal/graph/pcache"
	"repro/internal/loadgen"
	"repro/internal/montecarlo"
	"repro/internal/pagerank"
	"repro/internal/serve"
	"repro/internal/sparsify"
	"repro/internal/theory"
	"repro/internal/topk"
)

// Graph is an immutable directed graph in CSR form. Construct one with
// the generators or loaders below, or from an edge list with
// GraphFromEdges.
type Graph = graph.Graph

// Edge is a directed edge.
type Edge = graph.Edge

// VertexID identifies a vertex; ids are dense in [0, NumVertices).
type VertexID = graph.VertexID

// GraphStats summarizes a graph's degree structure.
type GraphStats = graph.Stats

// GraphFromEdges builds a graph from an explicit edge list.
func GraphFromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// ComputeGraphStats scans a graph and reports degree statistics.
func ComputeGraphStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// PowerLawConfig parameterizes the Zipf configuration-model generator,
// the stand-in for the paper's social-graph datasets.
type PowerLawConfig = gen.PowerLawConfig

// PowerLawGraph generates a directed power-law graph with no dangling
// vertices.
func PowerLawGraph(cfg PowerLawConfig) (*Graph, error) { return gen.PowerLaw(cfg) }

// TwitterLikeGraph generates a power-law graph shaped like a scaled-
// down Twitter follower graph (mean degree ≈ 30, strong skew).
func TwitterLikeGraph(n int, seed uint64) (*Graph, error) {
	return gen.PowerLaw(gen.TwitterLike(n, seed))
}

// LiveJournalLikeGraph generates a power-law graph shaped like a
// scaled-down LiveJournal graph (mean degree ≈ 14, milder skew).
func LiveJournalLikeGraph(n int, seed uint64) (*Graph, error) {
	return gen.PowerLaw(gen.LiveJournalLike(n, seed))
}

// RMATGraph generates a Graph500-style recursive-matrix graph with
// 2^scale vertices and edgeFactor·2^scale edges.
func RMATGraph(scale, edgeFactor int, seed uint64) (*Graph, error) {
	return gen.RMAT(gen.DefaultRMAT(scale, edgeFactor, seed))
}

// ErdosRenyiGraph generates a uniform random directed graph with n
// vertices and m edges (dangling vertices repaired with self-loops).
func ErdosRenyiGraph(n int, m int64, seed uint64) (*Graph, error) {
	return gen.ErdosRenyi(n, m, seed)
}

// LoadGraph reads a graph from disk, auto-detecting the format:
// the mmap-able gstore CSR format (opened zero-copy) or SNAP-style
// edge-list text ("src dst" per line, '#' comments). Files ending in
// .gz are decompressed. For edge lists, dangling vertices are repaired
// with self-loops so the result is always FrogWild-ready; gstore files
// reload exactly the graph that was saved.
func LoadGraph(path string) (*Graph, error) { return gio.Load(path, 0) }

// RelabelGraph returns a logically identical copy of g whose CSR rows
// are degree-ordered (hot vertices first) with the external→row
// permutation attached, so a paged open of the saved file packs hot
// adjacency onto few pages. External vertex ids are unchanged
// everywhere. Saving the result writes the FWGSTOR2 layout.
func RelabelGraph(g *Graph) (*Graph, error) { return gstore.Relabel(g) }

// ParseByteSize parses a human byte size ("512MiB", "2G", "1048576");
// it is the parser behind the CLIs' -graph-mem and -target-bytes
// flags. K/M/G suffixes are binary units with or without the iB.
func ParseByteSize(s string) (int64, error) { return pcache.ParseBytes(s) }

// SaveGraph writes a graph as edge-list text (gzipped when the path
// ends in .gz).
func SaveGraph(path string, g *Graph) error { return gio.SaveEdgeList(path, g) }

// SaveGraphCSR writes a graph in the gstore mmap-able CSR format:
// checksummed 8-aligned sections that OpenGraphCSR and LoadGraph map
// straight into memory, making reload time independent of graph size.
// Plain paths are written atomically; .gz paths gzip the same bytes
// (loaded buffered instead of mmap'd).
func SaveGraphCSR(path string, g *Graph) error { return gio.SaveCSR(path, g) }

// OpenGraphCSR opens a gstore CSR file zero-copy: the adjacency
// arrays alias the mmap'd file pages (with a buffered-read fallback
// where mmap is unavailable), section checksums are verified, and
// Close on the returned graph releases the mapping.
func OpenGraphCSR(path string) (*Graph, error) {
	return gstore.Open(path, gstore.OpenOptions{})
}

// PageRankOptions configures the exact solver.
type PageRankOptions = pagerank.Options

// PageRankResult is the exact solver's output.
type PageRankResult = pagerank.Result

// DefaultTeleport is the conventional teleportation probability 0.15.
const DefaultTeleport = pagerank.DefaultTeleport

// ExactPageRank computes the converged PageRank vector by power
// iteration — the ground truth for the approximation metrics. The
// inner loop runs on GOMAXPROCS cores with bit-identical results for
// every GOMAXPROCS.
func ExactPageRank(g *Graph, opts PageRankOptions) (*PageRankResult, error) {
	return pagerank.Exact(g, opts)
}

// FrogWildConfig configures a FrogWild run; see the frogwild package
// documentation for field semantics.
type FrogWildConfig = frogwild.Config

// FrogWildResult is a FrogWild run's output: per-vertex tallies, the
// π̂N estimate, and engine statistics (network bytes by class,
// simulated time, CPU).
type FrogWildResult = frogwild.Result

// ScatterMode selects FrogWild's frog-routing variant.
type ScatterMode = frogwild.ScatterMode

// FrogWild scatter modes.
const (
	// ScatterSplit conserves frogs exactly (the paper's shipped
	// implementation).
	ScatterSplit = frogwild.ScatterSplit
	// ScatterBinomial draws independent per-edge binomials (the
	// paper's analyzed model).
	ScatterBinomial = frogwild.ScatterBinomial
)

// RunFrogWild executes the FrogWild process on the simulated
// vertex-cut cluster and returns the top-PageRank estimate. Each
// simulated machine's engine phases run on its share of GOMAXPROCS,
// with bit-identical tallies for every GOMAXPROCS.
func RunFrogWild(g *Graph, cfg FrogWildConfig) (*FrogWildResult, error) {
	return frogwild.Run(g, cfg)
}

// SerialFrogWalk runs the single-machine reference implementation of
// the FrogWild walk process and returns per-vertex tallies. The walkers
// are sharded across GOMAXPROCS goroutines; every walker draws from its
// own derived RNG stream, so the tallies are bit-identical for every
// GOMAXPROCS.
func SerialFrogWalk(g *Graph, walkers, iterations int, pT float64, seed uint64) ([]int64, error) {
	return frogwild.SerialWalk(g, walkers, iterations, pT, seed)
}

// GraphLabPRConfig configures the GraphLab-PR baseline.
type GraphLabPRConfig = glpr.Config

// GraphLabPRResult is the baseline's output.
type GraphLabPRResult = glpr.Result

// RunGraphLabPR executes synchronous power-iteration PageRank on the
// same simulated engine (the paper's principal baseline). Set
// Iterations for the reduced-iterations variant or leave it zero for
// exact mode with Tolerance. Like RunFrogWild, it splits GOMAXPROCS
// across the simulated machines with bit-identical ranks for every
// GOMAXPROCS.
func RunGraphLabPR(g *Graph, cfg GraphLabPRConfig) (*GraphLabPRResult, error) {
	return glpr.Run(g, cfg)
}

// SparsifyConfig configures the uniform-sparsification baseline.
type SparsifyConfig = sparsify.Config

// SparsifyResult is the sparsification baseline's output.
type SparsifyResult = sparsify.Result

// RunSparsifiedPR deletes each edge with probability 1-Keep and runs
// GraphLab PR on the thinned graph (the paper's Figure 5 baseline).
func RunSparsifiedPR(g *Graph, cfg SparsifyConfig) (*SparsifyResult, error) {
	return sparsify.Run(g, cfg)
}

// MonteCarloConfig configures the Monte-Carlo baseline (Avrachenkov et
// al., reference [5] of the paper). The walks are sharded across
// GOMAXPROCS cores with bit-identical results for every GOMAXPROCS.
type MonteCarloConfig = montecarlo.Config

// MonteCarloResult is the Monte-Carlo baseline's output.
type MonteCarloResult = montecarlo.Result

// RunMonteCarloPR runs R walkers from every vertex.
func RunMonteCarloPR(g *Graph, cfg MonteCarloConfig) (*MonteCarloResult, error) {
	return montecarlo.Run(g, cfg)
}

// TopEntry pairs a vertex with its score.
type TopEntry = topk.Entry

// TopK returns the k highest-scoring vertices in descending order.
func TopK(scores []float64, k int) []TopEntry { return topk.Top(scores, k) }

// CapturedMass is the paper's Definition 2 metric: the true-PageRank
// mass of the top-k set selected by the estimate.
func CapturedMass(exact, estimate []float64, k int) float64 {
	return topk.CapturedMass(exact, estimate, k)
}

// NormalizedCapturedMass rescales CapturedMass by its optimum µk(π),
// the "Mass captured" accuracy in the paper's figures (1.0 = perfect).
func NormalizedCapturedMass(exact, estimate []float64, k int) float64 {
	return topk.NormalizedCapturedMass(exact, estimate, k)
}

// ExactIdentification is the fraction of the reported top-k that is in
// the true top-k (the paper's second metric).
func ExactIdentification(exact, estimate []float64, k int) float64 {
	return topk.ExactIdentification(exact, estimate, k)
}

// Partitioner assigns graph edges to machines (vertex-cut ingress).
type Partitioner = cluster.Partitioner

// PartitionerByName returns "random", "oblivious" or "grid" ingress.
func PartitionerByName(name string) (Partitioner, error) { return cluster.ByName(name) }

// Layout is a realized placement of a graph on the simulated cluster.
// Build one with NewLayout and share it across runs via the configs'
// Layout field to amortize ingress.
type Layout = cluster.Layout

// NewLayout partitions a graph across machines with the given ingress
// strategy (nil means random).
func NewLayout(g *Graph, machines int, p Partitioner, seed uint64) (*Layout, error) {
	return cluster.NewLayout(g, machines, p, seed)
}

// CostModel converts metered engine work into simulated seconds.
type CostModel = cluster.CostModel

// RunStats reports what an engine run did and cost; exposed on the
// FrogWild and GraphLab-PR results.
type RunStats = gas.RunStats

// ErrorBoundParams parameterizes the paper's Theorem 1 guarantee.
type ErrorBoundParams = theory.BoundParams

// ErrorBound evaluates Theorem 1: with probability ≥ 1−δ the FrogWild
// estimator's captured mass is within ε of optimal.
func ErrorBound(p ErrorBoundParams) (float64, error) { return theory.Epsilon(p) }

// IntersectionBound evaluates Theorem 2's bound on the probability two
// walkers meet within t steps.
func IntersectionBound(n, t int, piMax, pT float64) float64 {
	return theory.IntersectBound(n, t, piMax, pT)
}

// PPRConfig configures a personalized FrogWild run (top-k personalized
// PageRank, the extension discussed in the paper's Section 2.4).
type PPRConfig = frogwild.PPRConfig

// RunPersonalizedFrogWild executes FrogWild with frogs restarting from
// the Sources set instead of the uniform distribution; the estimate
// approximates the heavy entries of the personalized PageRank vector.
func RunPersonalizedFrogWild(g *Graph, cfg PPRConfig) (*FrogWildResult, error) {
	return frogwild.RunPPR(g, cfg)
}

// ExactPersonalizedPageRank computes the exact PPR vector for the
// uniform distribution over sources (ground truth for
// RunPersonalizedFrogWild).
func ExactPersonalizedPageRank(g *Graph, sources []VertexID, teleport float64) ([]float64, error) {
	return frogwild.ExactPPR(g, sources, teleport, 0, 0)
}

// PPROptions tunes the serving layer's /v1/ppr endpoint: per-source
// walk count, the hard per-request walk budget, the request-shape
// limits and the hot-source LRU size. The zero value serves with
// defaults. Set it on ServeConfig's PPR field.
type PPROptions = serve.PPROptions

// PersonalizedTopK estimates the top-k personalized PageRank of the
// source set over a serving snapshot with the same bounded-budget walk
// estimator /v1/ppr serves: truncated-geometric walk lengths, dangling
// mass restarting at the sources, all randomness derived from the
// snapshot's seed and epoch. The boolean reports whether the walk
// budget truncated the per-source walk count. The entries are
// bit-identical to the served /v1/ppr response's for the same
// snapshot, sources, k and options.
func PersonalizedTopK(s *Snapshot, sources []VertexID, k int, opts PPROptions) ([]TopEntry, bool, error) {
	return serve.PPRTopK(s, sources, k, opts)
}

// Erasure selects the Appendix A edge-erasure model variant.
type Erasure = frogwild.Erasure

// Erasure model variants.
const (
	// ErasureAtLeastOne never strands a frog (Example 10, the paper's
	// implemented model).
	ErasureAtLeastOne = frogwild.ErasureAtLeastOne
	// ErasureIndependent may strand frogs at low ps (Example 9).
	ErasureIndependent = frogwild.ErasureIndependent
)

// L1Distance returns Σ|a_i−b_i| (twice the total-variation distance
// for distributions).
func L1Distance(a, b []float64) float64 { return topk.L1Distance(a, b) }

// ChiSquaredContrast returns the paper's Definition 12 contrast
// χ²(a; b).
func ChiSquaredContrast(a, b []float64) float64 { return topk.ChiSquaredContrast(a, b) }

// KendallTauTopK returns Kendall's tau over the union of the two
// top-k sets (+1 = identical order, −1 = reversed).
func KendallTauTopK(exact, estimate []float64, k int) float64 {
	return topk.KendallTauTopK(exact, estimate, k)
}

// PrecisionAtK is ExactIdentification with credit for boundary ties.
func PrecisionAtK(exact, estimate []float64, k int) float64 {
	return topk.PrecisionAtK(exact, estimate, k)
}

// Snapshot is an immutable published answer to the top-k PageRank
// query: per-vertex ranks, a precomputed top index, graph stats, and
// the provenance (engine, seed, epoch) that produced it. Its TopK
// method is bit-identical to TopK on the snapshot's scores.
type Snapshot = serve.Snapshot

// SnapshotConfig says how a snapshot's estimate is computed; the zero
// value selects FrogWild with the paper's defaults.
type SnapshotConfig = serve.BuildConfig

// ServeConfig bundles the snapshot build configuration with the
// background refresh cadence for Serve.
type ServeConfig = serve.ServiceConfig

// ServeEngine names an estimate producer the serving layer can run.
type ServeEngine = serve.Engine

// Engines the serving layer can run.
const (
	// ServeEngineFrogWild serves FrogWild estimates (the intended
	// configuration: fast approximate answers, refreshed out of band).
	ServeEngineFrogWild = serve.EngineFrogWild
	// ServeEngineGLPR serves synchronous power-iteration estimates.
	ServeEngineGLPR = serve.EngineGLPR
	// ServeEngineExact serves converged exact PageRank.
	ServeEngineExact = serve.EngineExact
)

// NewSnapshot computes an estimate of g's PageRank with the configured
// engine and wraps it in an immutable, query-ready snapshot (top index
// precomputed; epoch 0 until a serving store publishes it).
func NewSnapshot(g *Graph, cfg SnapshotConfig) (*Snapshot, error) {
	return serve.Build(g, cfg)
}

// SaveSnapshot persists a serving snapshot (ranks, top index, engine/
// seed/epoch provenance, graph stats) to path atomically in the
// checksummed binary snapshot format. Pair with ServeConfig's
// SnapshotDir to let a restarted server answer queries in
// milliseconds from the last persisted estimate.
func SaveSnapshot(path string, s *Snapshot) error { return serve.SaveSnapshot(path, s) }

// LoadSnapshot reads a persisted snapshot and attaches it to g, which
// must be the graph the snapshot was computed on (vertex and edge
// counts are checked). The result carries the persisted epoch's
// provenance and is flagged WarmStart so a Refresher re-derives a
// fresh estimate in the background.
func LoadSnapshot(path string, g *Graph) (*Snapshot, error) { return serve.LoadSnapshot(path, g) }

// SnapshotFilePath returns the file inside dir where the serving
// layer persists (and warm-starts from) the latest snapshot.
func SnapshotFilePath(dir string) string { return serve.SnapshotPath(dir) }

// Serve computes an initial snapshot of g, then serves the top-k
// PageRank query API on addr until ctx is cancelled (graceful
// shutdown), refreshing the snapshot in the background on the
// configured cadence. See cmd/prserve for the endpoint table.
func Serve(ctx context.Context, addr string, g *Graph, cfg ServeConfig) error {
	return serve.ListenAndServe(ctx, addr, g, cfg)
}

// NewServerHandler computes a snapshot of g and returns the full query
// API as an in-process http.Handler (no listener): the hook tests and
// embedders drive directly or mount on a listener of their own.
func NewServerHandler(g *Graph, cfg SnapshotConfig) (http.Handler, error) {
	srv, _, err := serve.NewService(g, serve.ServiceConfig{Build: cfg})
	if err != nil {
		return nil, err
	}
	return srv, nil
}

// LoadConfig fixes a deterministic query workload for the load
// generator: Zipf-skewed topk/rank/stats traffic, open or closed loop,
// warmup and concurrency ramp. See internal/loadgen.
type LoadConfig = loadgen.Config

// LoadMix weights the query kinds in a load test; the zero value is
// 60% topk / 30% rank / 10% stats.
type LoadMix = loadgen.Mix

// LoadReport is a load test's outcome: wall time plus per-endpoint
// counts, error counts and latency histograms.
type LoadReport = loadgen.Report

// RunLoadTest drives the query service listening at baseURL (a
// cmd/prserve, or NewServerHandler's result behind a listener) over
// HTTP with cfg's deterministic workload and returns the measured
// report. Same seed + config means the same query sequence, always.
func RunLoadTest(ctx context.Context, cfg LoadConfig, baseURL string) (*LoadReport, error) {
	return loadgen.Run(ctx, cfg, loadgen.NewHTTPTarget(baseURL, cfg.Concurrency))
}

// FrogEstimator selects what FrogWild's per-vertex tally counts.
type FrogEstimator = frogwild.Estimator

// FrogWild estimator variants.
const (
	// EstimatorEndpoint counts each frog at its final position (the
	// paper's Definition 5).
	EstimatorEndpoint = frogwild.EstimatorEndpoint
	// EstimatorVisits counts every visit (Avrachenkov et al.'s
	// complete-path estimator, the paper's reference [5]): ≈1/pT
	// samples per frog at identical network cost.
	EstimatorVisits = frogwild.EstimatorVisits
)
