package harness

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
)

// Scale selects workload sizes. The paper runs Twitter (41.6M vertices)
// and LiveJournal (4.8M); we run structurally equivalent power-law
// graphs at laptop scale and keep every sweep dimension identical.
type Scale int

const (
	// ScaleTiny is for unit tests and benchmarks: seconds per figure.
	ScaleTiny Scale = iota
	// ScaleSmall is the default for the experiments CLI: a few minutes
	// for the full suite.
	ScaleSmall
	// ScaleMedium stresses the simulator harder (tens of minutes for
	// GL PR exact sweeps).
	ScaleMedium
	// ScaleLarge approaches the simulator's practical limits.
	ScaleLarge
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale converts a name into a Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "", "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	}
	return 0, fmt.Errorf("harness: unknown scale %q (want tiny|small|medium|large)", name)
}

// sizes returns the twitter-like and livejournal-like vertex counts.
func (s Scale) sizes() (twN, ljN int) {
	switch s {
	case ScaleTiny:
		return 6000, 4000
	case ScaleSmall:
		return 40000, 20000
	case ScaleMedium:
		return 150000, 75000
	default: // ScaleLarge
		return 500000, 250000
	}
}

// walkersFor computes the workload's base walker budget: the paper runs
// 800K walkers on the 4.8M-vertex LiveJournal graph, a 1:6
// walker-to-vertex ratio that keeps N sublinear in n (the algorithm's
// whole point) and keeps combined frog messages unsaturated. We apply
// the same ratio at every scale.
func walkersFor(n int) int {
	w := n / 6
	if w < 500 {
		w = 500
	}
	return w
}

// Workload bundles a graph with its exact PageRank ground truth and the
// paper-equivalent walker budget.
type Workload struct {
	// Name identifies the workload in table notes.
	Name string
	// Graph is the synthetic stand-in for the paper's dataset.
	Graph *graph.Graph
	// Exact is the converged PageRank vector (ground truth for
	// accuracy metrics).
	Exact []float64
	// Walkers is the 800K-equivalent frog budget at this scale.
	Walkers int
}

// Env lazily builds and caches the two workloads plus cluster layouts,
// so multiple figures share graphs, ground truth and partitions.
type Env struct {
	// Scale selects sizes.
	Scale Scale
	// Seed drives generation, partitioning and all runs.
	Seed uint64
	// Cost is the cluster cost model used for simulated time.
	Cost cluster.CostModel

	mu      sync.Mutex
	tw, lj  *Workload
	layouts map[string]*cluster.Layout
}

// NewEnv returns an experiment environment at the given scale.
func NewEnv(scale Scale, seed uint64) *Env {
	return &Env{
		Scale:   scale,
		Seed:    seed,
		Cost:    cluster.DefaultCostModel(),
		layouts: make(map[string]*cluster.Layout),
	}
}

// Twitter returns the Twitter-like workload, building it on first use.
func (e *Env) Twitter() (*Workload, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tw != nil {
		return e.tw, nil
	}
	twN, _ := e.Scale.sizes()
	g, err := gen.PowerLaw(gen.TwitterLike(twN, e.Seed))
	if err != nil {
		return nil, fmt.Errorf("harness: generating twitterlike: %w", err)
	}
	w, err := newWorkload("twitterlike", g, walkersFor(twN))
	if err != nil {
		return nil, err
	}
	e.tw = w
	return w, nil
}

// LiveJournal returns the LiveJournal-like workload, building it on
// first use.
func (e *Env) LiveJournal() (*Workload, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lj != nil {
		return e.lj, nil
	}
	_, ljN := e.Scale.sizes()
	g, err := gen.PowerLaw(gen.LiveJournalLike(ljN, e.Seed+1))
	if err != nil {
		return nil, fmt.Errorf("harness: generating livejournallike: %w", err)
	}
	w, err := newWorkload("livejournallike", g, walkersFor(ljN))
	if err != nil {
		return nil, err
	}
	e.lj = w
	return w, nil
}

func newWorkload(name string, g *graph.Graph, walkers int) (*Workload, error) {
	exact, err := pagerank.Exact(g, pagerank.Options{Tolerance: 1e-10})
	if err != nil {
		return nil, fmt.Errorf("harness: exact pagerank for %s: %w", name, err)
	}
	return &Workload{Name: name, Graph: g, Exact: exact.Rank, Walkers: walkers}, nil
}

// Layout returns (building and caching on first use) the layout for a
// workload on the given machine count, using random ingress — the
// GraphLab default the paper uses.
func (e *Env) Layout(w *Workload, machines int) (*cluster.Layout, error) {
	key := fmt.Sprintf("%s/%d", w.Name, machines)
	e.mu.Lock()
	defer e.mu.Unlock()
	if lay, ok := e.layouts[key]; ok {
		return lay, nil
	}
	lay, err := cluster.NewLayout(w.Graph, machines, cluster.Random{}, e.Seed)
	if err != nil {
		return nil, err
	}
	e.layouts[key] = lay
	return lay, nil
}

// describe annotates a table with the workload's dimensions.
func (w *Workload) describe(t *Table) {
	t.AddNote("workload %s: %d vertices, %d edges, base walkers %d",
		w.Name, w.Graph.NumVertices(), w.Graph.NumEdges(), w.Walkers)
}
