// Package serve turns the batch reproduction into a query service: the
// paper's point is that FrogWild answers the top-k PageRank query fast
// enough to be interactive, so this package holds a computed result and
// answers queries from it.
//
// The moving parts:
//
//   - Snapshot: an immutable view of one completed estimate — the
//     per-vertex ranks, a precomputed top-MaxK index, graph stats, and
//     the provenance (engine, seed, epoch) that produced it.
//   - Store: publishes snapshots through an atomic.Pointer so readers
//     are lock-free and always see a complete, internally consistent
//     snapshot.
//   - Refresher: recomputes estimates on a cadence (or on demand) and
//     swaps the result into the Store atomically.
//   - Server: an HTTP JSON API over a Store; /v1/topk for every k up
//     to MaxK is a prefix of the top index's bodies, rendered once when
//     the snapshot is published.
//
// Every response carries the snapshot's epoch, so clients can detect
// staleness and correlate answers across endpoints.
package serve

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// Engine names an estimate producer a Snapshot can be built from. It
// is the wire package's engine vocabulary: configuration and responses
// share one type, so they cannot disagree.
type Engine = api.Engine

// Engines the serving layer can run.
const (
	// EngineFrogWild runs the paper's fast approximation on the
	// simulated cluster (the intended serving configuration).
	EngineFrogWild Engine = "frogwild"
	// EngineExact runs serial-reference power iteration to
	// convergence (ground truth; slowest).
	EngineExact Engine = "exact"
)

// ParseEngine converts a name into an Engine.
func ParseEngine(name string) (Engine, error) {
	switch Engine(name) {
	case EngineFrogWild, EngineExact:
		return Engine(name), nil
	}
	return "", fmt.Errorf("serve: unknown engine %q (want frogwild|exact)", name)
}

// DefaultMaxK is the top index size when BuildConfig.MaxK is zero:
// queries up to this k are answered from the precomputed index.
const DefaultMaxK = 100

// BuildConfig says how to compute a Snapshot's estimate. The zero
// value selects FrogWild with the paper's defaults (n/6 walkers, 4
// iterations, ps=0.7, 16 machines). Every engine teleports with
// pagerank.DefaultTeleport, the probability /v1/ppr walks with too.
type BuildConfig struct {
	// Engine selects the estimate producer; zero value is FrogWild.
	Engine Engine
	// Walkers is FrogWild's frog count N; 0 selects n/6 (min 100).
	Walkers int
	// Iterations is FrogWild's walk cutoff; 0 selects 4.
	Iterations int
	// PS is the mirror-synchronization probability; 0 selects 0.7.
	PS float64
	// Machines is the simulated cluster size; 0 selects 16.
	Machines int
	// Seed drives the run; the Refresher derives a fresh seed from it
	// per generation.
	Seed uint64
	// MaxK is the precomputed top index size; 0 selects DefaultMaxK.
	MaxK int
}

// RegisterFlags declares on fs prserve's engine flags -engine,
// -machines, -maxk, -ps, -walkers and -iters. A field that is zero
// defaults to what withDefaults resolves it to, except -walkers, whose
// default 0 leaves the choice to the graph size, and -iters, whose
// default 0 selects 4. Each is checked while parsing, so an unknown
// engine, or a value that withDefaults would take for unset or the
// engine would refuse after the graph loads, is a usage error.
func (c *BuildConfig) RegisterFlags(fs *flag.FlagSet) {
	d := c.withDefaults(0)
	c.Engine, c.Machines, c.MaxK, c.PS = d.Engine, d.Machines, d.MaxK, d.PS
	fs.Func("engine", "estimate engine: frogwild|exact", func(v string) error {
		e, err := ParseEngine(v)
		if err == nil {
			c.Engine = e
		}
		return err
	})
	intFlag(fs, &c.Machines, "machines", "simulated cluster size for the estimate engine",
		fmt.Sprintf("1 to %d", cluster.MaxMachines), func(n int) bool { return n >= 1 && n <= cluster.MaxMachines })
	intFlag(fs, &c.MaxK, "maxk", "precomputed top index size (queries up to this k are O(k))",
		"at least 1", func(n int) bool { return n >= 1 })
	intFlag(fs, &c.Walkers, "walkers", "frogwild walker count N (default: vertices/6)",
		"at least 1", func(n int) bool { return n >= 1 })
	intFlag(fs, &c.Iterations, "iters", "frogwild walk cutoff (default 4)",
		"at least 0", func(n int) bool { return n >= 0 })
	fs.Func("ps", "mirror synchronization probability, in (0, 1]", func(v string) error {
		p, err := strconv.ParseFloat(v, 64)
		if err == nil && !(p > 0 && p <= 1) {
			err = errors.New("want a probability in (0, 1]")
		}
		if err == nil {
			c.PS = p
		}
		return err
	})
	// A Func flag has no default of its own to show in usage.
	fs.Lookup("engine").DefValue = string(d.Engine)
	fs.Lookup("ps").DefValue = strconv.FormatFloat(d.PS, 'g', -1, 64)
}

// intFlag declares an int flag on fs that refuses, while parsing, a
// value for which ok is false, naming want.
func intFlag(fs *flag.FlagSet, dst *int, name, usage, want string, ok func(int) bool) {
	fs.Var(&checkedInt{dst, want, ok}, name, usage)
}

// checkedInt is intFlag's flag.Value. Its zero value prints as 0, so
// usage adds no "(default 0)" to a flag whose zero leaves the choice to
// the graph or the engine, as a flag.Func's empty zero value would.
type checkedInt struct {
	dst  *int
	want string
	ok   func(int) bool
}

func (c *checkedInt) String() string {
	if c.dst == nil {
		return "0"
	}
	return strconv.Itoa(*c.dst)
}

func (c *checkedInt) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, strconv.IntSize)
	if err == nil && !c.ok(int(n)) {
		err = fmt.Errorf("want %s", c.want)
	}
	if err == nil {
		*c.dst = int(n)
	}
	return err
}

// withDefaults resolves the zero values.
func (c BuildConfig) withDefaults(n int) BuildConfig {
	if c.Engine == "" {
		c.Engine = EngineFrogWild
	}
	if c.Walkers == 0 {
		c.Walkers = max(n/6, 100)
	}
	if c.Iterations == 0 {
		c.Iterations = 4
	}
	if c.PS == 0 {
		c.PS = 0.7
	}
	if c.Machines == 0 {
		c.Machines = 16
	}
	if c.MaxK == 0 {
		c.MaxK = DefaultMaxK
	}
	return c
}

// Snapshot is one immutable published answer to the top-k PageRank
// query: the full estimate vector plus a precomputed top-MaxK index.
// All fields are set before the snapshot is published and never
// mutated afterwards, so lock-free readers are safe.
type Snapshot struct {
	// Epoch is the publication sequence number the Store assigned
	// (first publish = 1). Every API response carries it.
	Epoch uint64
	// Engine and Seed are the provenance of the estimate.
	Engine Engine
	Seed   uint64
	// BuiltAt is when the build finished; BuildSeconds how long the
	// estimate took to compute.
	BuiltAt      time.Time
	BuildSeconds float64
	// EstimateSeconds/IndexSeconds split BuildSeconds into its stages:
	// the engine run producing Ranks, and the top-index/stats
	// construction. Zero when the snapshot was not produced by Build
	// (warm starts, FromRanks). Never persisted.
	EstimateSeconds float64
	IndexSeconds    float64
	// Graph is the graph the estimate was computed on. /v1/ppr walks
	// it, and /v1/compare's exact reference is computed on it once per
	// graph, not once per snapshot.
	Graph *graph.Graph
	// Stats summarizes the graph's degree structure.
	Stats graph.Stats
	// Ranks is the per-vertex estimate (sums to 1).
	Ranks []float64
	// Top is topk.Top(Ranks, MaxK), the precomputed index queries are
	// answered from.
	Top []topk.Entry
	// MaxK is the index size.
	MaxK int
	// WarmStart marks a snapshot restored from disk rather than
	// freshly computed: it serves immediately (with its persisted
	// epoch and provenance) while the Refresher treats the store as
	// due for a fresh build. Never persisted; set by the loader.
	WarmStart bool

	// bodies is Top rendered as /v1/topk bodies at Epoch, set where the
	// snapshot enters a Store (Publish, Restore). It is nil if Top holds
	// a NaN or ±Inf score: /v1/topk then renders afresh and reports that.
	bodies *api.TopKIndex
}

// render sets bodies, dropping the error that /v1/topk reports.
func (s *Snapshot) render() {
	s.bodies, _ = api.NewTopKIndex(s.Epoch, s.Engine, s.Seed, s.Top)
}

// indexed reports whether the top-k is a prefix of Top: k is within
// MaxK, or Top already holds every vertex.
func (s *Snapshot) indexed(k int) bool { return k <= s.MaxK || s.MaxK >= len(s.Ranks) }

// TopK returns the k highest-ranked vertices in descending order,
// bit-identical to topk.Top(s.Ranks, k). Queries with k <= MaxK are a
// copy of the precomputed index prefix (the prefix property holds
// because topk's ordering is total); larger k falls back to a full
// selection. The result is freshly allocated and safe to modify.
func (s *Snapshot) TopK(k int) []topk.Entry {
	if k <= 0 {
		return nil
	}
	if s.indexed(k) {
		if k > len(s.Top) {
			k = len(s.Top)
		}
		out := make([]topk.Entry, k)
		copy(out, s.Top[:k])
		return out
	}
	return topk.Top(s.Ranks, k)
}

// Rank returns vertex v's estimated PageRank and whether v exists.
func (s *Snapshot) Rank(v graph.VertexID) (float64, bool) {
	if int(v) >= len(s.Ranks) {
		return 0, false
	}
	return s.Ranks[int(v)], true
}

// FromRanks wraps an already-computed estimate vector in a Snapshot
// (index precomputed, epoch 0 until published). The vector is retained,
// not copied: callers hand over ownership.
func FromRanks(g *graph.Graph, engine Engine, seed uint64, ranks []float64, maxK int) (*Snapshot, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("serve: empty graph")
	}
	if len(ranks) != g.NumVertices() {
		return nil, fmt.Errorf("serve: %d ranks for %d vertices", len(ranks), g.NumVertices())
	}
	if maxK <= 0 {
		maxK = DefaultMaxK
	}
	return &Snapshot{
		Engine:  engine,
		Seed:    seed,
		BuiltAt: time.Now(),
		Graph:   g,
		Stats:   graph.ComputeStats(g),
		Ranks:   ranks,
		Top:     topk.Top(ranks, maxK),
		MaxK:    maxK,
	}, nil
}

// Build computes an estimate with the configured engine and wraps it in
// an unpublished Snapshot (epoch 0 until a Store publishes it). A failed
// read of a paged graph is an error like any other build failure: a
// Refresher counts it and keeps serving the snapshot it has.
func Build(g *graph.Graph, cfg BuildConfig) (snap *Snapshot, err error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("serve: empty graph")
	}
	defer catchStorageFault("snapshot build", &err)
	cfg = cfg.withDefaults(g.NumVertices())
	start := time.Now()
	ranks, err := computeRanks(g, cfg)
	if err != nil {
		return nil, err
	}
	estimated := time.Now()
	snap, err = FromRanks(g, cfg.Engine, cfg.Seed, ranks, cfg.MaxK)
	if err != nil {
		return nil, err
	}
	snap.EstimateSeconds = estimated.Sub(start).Seconds()
	snap.IndexSeconds = time.Since(estimated).Seconds()
	snap.BuildSeconds = time.Since(start).Seconds()
	return snap, nil
}

// computeRanks dispatches to the configured engine.
func computeRanks(g *graph.Graph, cfg BuildConfig) ([]float64, error) {
	switch cfg.Engine {
	case EngineFrogWild:
		res, err := frogwild.Run(g, frogwild.Config{
			Walkers:    cfg.Walkers,
			Iterations: cfg.Iterations,
			PS:         cfg.PS,
			Machines:   cfg.Machines,
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		return res.Estimate, nil
	case EngineExact:
		res, err := pagerank.Exact(g, pagerank.Options{})
		if err != nil {
			return nil, err
		}
		return res.Rank, nil
	}
	return nil, fmt.Errorf("serve: unknown engine %q", cfg.Engine)
}
