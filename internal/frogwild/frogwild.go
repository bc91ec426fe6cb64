// Package frogwild implements the paper's primary contribution: the
// FrogWild vertex program, which approximates the top-k PageRank
// vertices by simulating N discrete random walkers ("frogs") on the
// partial-synchronization GAS engine.
//
// The process (Section 2.2 of the paper):
//
//   - N frogs are born on uniformly random vertices.
//   - At each superstep's apply(), every incoming frog dies with
//     probability pT = 0.15 and is tallied at its death vertex; this,
//     with the uniform start, realizes the Geometric(pT) walk length
//     that replaces explicit teleportation (Lemma 16).
//   - The sync step synchronizes each mirror only with probability ps;
//     surviving frogs are divided across the synchronized replicas
//     (weighted by local out-degree, so each frog's edge choice is
//     uniform over the enabled out-edges — the edge-erasure model of
//     Appendix A at machine granularity) and scattered through the
//     replicas' local out-edges.
//   - After t supersteps all frogs halt where they are and are tallied.
//
// The estimator π̂N(i) = c(i)/N (Definition 5) then approximates the
// PageRank vector's heavy entries.
package frogwild

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/rng"
	"repro/internal/walk"
)

// Erasure selects which of the paper's two edge-erasure models
// (Appendix A) governs frogs whose synchronized replicas have no local
// out-edges.
type Erasure int

const (
	// ErasureAtLeastOne (the default, Example 10) force-enables one
	// replica with local out-edges, so no frog is ever stranded.
	ErasureAtLeastOne Erasure = iota
	// ErasureIndependent (Example 9) erases mirrors independently;
	// frogs on a vertex with no enabled out-edges are lost for that
	// run, as the paper's footnote 1 notes.
	ErasureIndependent
)

// String implements fmt.Stringer.
func (e Erasure) String() string {
	switch e {
	case ErasureAtLeastOne:
		return "at-least-one"
	case ErasureIndependent:
		return "independent"
	}
	return fmt.Sprintf("erasure(%d)", int(e))
}

// Estimator selects what the per-vertex tally c(v) counts.
type Estimator int

const (
	// EstimatorEndpoint (the paper's Definition 5) counts each frog
	// once, at the position where it dies or is halted.
	EstimatorEndpoint Estimator = iota
	// EstimatorVisits counts every visit of every frog (the
	// complete-path estimator of Avrachenkov et al., the paper's
	// reference [5]): the visit distribution of a geometric-length walk
	// is also proportional to π, and each frog contributes ≈ 1/pT
	// samples instead of one, reducing variance at identical network
	// cost.
	EstimatorVisits
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case EstimatorEndpoint:
		return "endpoint"
	case EstimatorVisits:
		return "visits"
	}
	return fmt.Sprintf("estimator(%d)", int(e))
}

// ScatterMode selects how surviving frogs are routed through edges.
type ScatterMode int

const (
	// ScatterSplit (the default, and what the paper's implementation
	// ships) conserves frogs exactly: the K survivors are multinomially
	// divided across synchronized replicas proportionally to local
	// out-degree, then multinomially across each replica's local edges.
	// Every frog traverses exactly one enabled edge.
	ScatterSplit ScatterMode = iota
	// ScatterBinomial is the paper's analyzed variant: every enabled
	// edge independently draws Binomial(K, 1/(dout·ps)) frogs. Marginals
	// are exact but the frog count is conserved only in expectation; the
	// estimator normalizes by the realized total.
	ScatterBinomial
)

// String implements fmt.Stringer.
func (m ScatterMode) String() string {
	switch m {
	case ScatterSplit:
		return "split"
	case ScatterBinomial:
		return "binomial"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// state is the per-vertex FrogWild state: the settled-frog tally c(v)
// and the transient count K(v) of frogs currently on the vertex.
type state struct {
	Count int64
	K     int64
}

// program implements gas.Program, gas.Splitter and gas.Finalizer.
type program struct {
	g         *graph.Graph
	init      []int64
	pT        float64
	ps        float64
	mode      ScatterMode
	estimator Estimator
	// counts[m] is machine m's split buffer for ScatterLocal, reused
	// across its calls: a machine's calls never overlap.
	counts [][]int64
}

// InitState implements gas.Program: initial frogs arrive as state.K at
// superstep 0.
func (p *program) InitState(v graph.VertexID) (state, bool) {
	k := p.init[v]
	return state{K: k}, k > 0
}

// Apply implements gas.Program: collect arriving frogs, kill each with
// probability pT (tallying deaths), and keep survivors for scatter.
func (p *program) Apply(v graph.VertexID, st state, _ float64, msg int64, hasMsg bool, ctx *gas.Context) (state, bool) {
	var arrivals int64
	if ctx.Superstep == 0 {
		arrivals = st.K
	}
	if hasMsg {
		arrivals += msg
	}
	if arrivals == 0 {
		st.K = 0
		return st, false
	}
	deaths := int64(ctx.Rng.Binomial(int(arrivals), p.pT))
	if p.estimator == EstimatorVisits {
		// Complete-path estimator: every arrival is a visit sample.
		st.Count += arrivals
	} else {
		st.Count += deaths
	}
	st.K = arrivals - deaths
	return st, st.K > 0
}

// Split implements gas.Splitter: divide the K survivors across the
// synchronized replicas proportionally to their local out-degrees. In
// binomial mode every replica instead receives the full count and draws
// independent binomials per edge. A share is filled when it holds a
// frog: a replica with none has nothing to scatter.
func (p *program) Split(v graph.VertexID, st state, weights []int, r *rng.Stream, shares []state, filled []bool) {
	if p.mode == ScatterBinomial {
		for i := range shares {
			shares[i] = state{K: st.K}
			filled[i] = st.K > 0
		}
		return
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	remaining := st.K
	for i := 0; i < len(weights)-1; i++ {
		if remaining == 0 {
			break
		}
		x := int64(r.Binomial(int(remaining), float64(weights[i])/float64(total)))
		shares[i].K = x
		filled[i] = x > 0
		remaining -= x
		total -= weights[i]
	}
	shares[len(weights)-1].K = remaining
	filled[len(weights)-1] = remaining > 0
}

// ScatterLocal implements gas.Program: route this replica's share of
// frogs through the local out-edges.
func (p *program) ScatterLocal(v graph.VertexID, st state, neighbors []graph.VertexID, emit func(graph.VertexID, int64), ctx *gas.Context) {
	if st.K <= 0 || len(neighbors) == 0 {
		return
	}
	if p.mode == ScatterBinomial {
		// Paper's scatter(): x ~ Bin(K, 1/(dout·ps)) per enabled edge.
		prob := 1 / (float64(p.g.OutDegree(v)) * p.ps)
		if prob > 1 {
			prob = 1
		}
		for _, d := range neighbors {
			if x := ctx.Rng.Binomial(int(st.K), prob); x > 0 {
				emit(d, int64(x))
			}
		}
		return
	}
	if len(neighbors) == 1 {
		emit(neighbors[0], st.K)
		return
	}
	counts := slices.Grow(p.counts[ctx.Machine][:0], len(neighbors))[:len(neighbors)]
	p.counts[ctx.Machine] = counts
	ctx.Rng.MultinomialSplit(int(st.K), counts)
	for i, c := range counts {
		if c > 0 {
			emit(neighbors[i], c)
		}
	}
}

// CombineMsg implements gas.Program: frog counts sum.
func (p *program) CombineMsg(a, b int64) int64 { return a + b }

// Sizes implements gas.Program: a frog count is one 8-byte integer in
// every role.
func (p *program) Sizes() gas.Sizes { return gas.Sizes{State: 8, Msg: 8, Acc: 8} }

// Finalize implements gas.Finalizer: frogs still in flight at the
// cutoff are tallied where they landed ("c(i) ← c(i)+K(i) and halt").
// Under the visits estimator the final arrival is simply one more
// visit.
func (p *program) Finalize(v graph.VertexID, st state, pending int64, hasPending bool) state {
	if hasPending {
		st.Count += pending
	}
	st.K = 0
	return st
}

// Config configures a FrogWild run.
type Config struct {
	// Walkers is N, the number of frogs. Required.
	Walkers int
	// Iterations is t, the walk cutoff in supersteps. Required.
	Iterations int
	// PS is the mirror-synchronization probability; 0 selects 1 (full
	// sync).
	PS float64
	// Teleport is pT; 0 selects the conventional 0.15.
	Teleport float64
	// Machines is the cluster size; 0 selects 1.
	Machines int
	// Partitioner selects the ingress strategy; nil means random.
	Partitioner cluster.Partitioner
	// Mode selects the scatter variant; the zero value is ScatterSplit.
	Mode ScatterMode
	// ErasureModel selects the Appendix A erasure model; the zero value
	// is ErasureAtLeastOne (the paper's implemented choice).
	ErasureModel Erasure
	// Estimator selects the tally semantics; the zero value is the
	// paper's endpoint estimator (Definition 5).
	Estimator Estimator
	// Seed drives frog placement, deaths, routing and sync coin flips.
	Seed uint64
	// Cost overrides the cost model; zero value selects the default.
	Cost cluster.CostModel
	// Layout, when non-nil, reuses a prebuilt layout (Machines and
	// Partitioner are then ignored).
	Layout *cluster.Layout
}

// Result is a FrogWild run's output.
type Result struct {
	// Counts is c(v), the per-vertex settled-frog tally.
	Counts []int64
	// Estimate is π̂N = Counts normalized by the realized total.
	Estimate []float64
	// TotalFrogs is the realized tally sum (equals Walkers in split
	// mode under the default erasure model; a random quantity near it
	// in binomial mode; possibly lower under independent erasures).
	TotalFrogs int64
	// LostFrogs counts walkers stranded by independent erasures
	// (always 0 in split mode under ErasureAtLeastOne).
	LostFrogs int64
	// Stats reports engine metrics for the run.
	Stats *gas.RunStats
	// Layout is the cluster layout used.
	Layout *cluster.Layout
}

// Run executes FrogWild on the distributed engine with uniform frog
// placement (the paper's process).
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	return runWithPlacement(g, cfg, func(n, walkers int, r *rng.Stream) []int64 {
		init := make([]int64, n)
		r.MultinomialSplit(walkers, init)
		return init
	})
}

// runWithPlacement is the shared core of Run and RunPPR: placer
// produces the initial per-vertex frog counts (summing to walkers).
func runWithPlacement(g *graph.Graph, cfg Config, placer func(n, walkers int, r *rng.Stream) []int64) (*Result, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("frogwild: empty graph")
	}
	if cfg.Walkers <= 0 {
		return nil, fmt.Errorf("frogwild: Walkers must be positive, got %d", cfg.Walkers)
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("frogwild: Iterations must be positive, got %d", cfg.Iterations)
	}
	ps := cfg.PS
	if ps == 0 {
		ps = 1
	}
	if ps < 0 || ps > 1 {
		return nil, fmt.Errorf("frogwild: ps %v out of [0,1]", cfg.PS)
	}
	pT := cfg.Teleport
	if pT == 0 {
		pT = pagerank.DefaultTeleport
	}
	if pT <= 0 || pT > 1 {
		return nil, fmt.Errorf("frogwild: teleport %v out of (0,1]", cfg.Teleport)
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) == 0 {
			return nil, fmt.Errorf("frogwild: vertex %d has out-degree 0; repair dangling vertices first (the paper assumes dout > 0)", v)
		}
	}
	lay := cfg.Layout
	if lay == nil {
		machines := cfg.Machines
		if machines <= 0 {
			machines = 1
		}
		var err error
		lay, err = cluster.NewLayout(g, machines, cfg.Partitioner, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}

	// Place the N frogs; the placement distribution defines the walk's
	// restart distribution (uniform for PageRank, the source set for
	// personalized PageRank).
	init := placer(n, cfg.Walkers, rng.Derive(cfg.Seed, 0xF06))

	prog := &program{g: g, init: init, pT: pT, ps: ps, mode: cfg.Mode, estimator: cfg.Estimator,
		counts: make([][]int64, lay.NumMachines())}
	eng, err := gas.New[state, int64](lay, prog, gas.Options{
		PS:                  ps,
		Seed:                cfg.Seed,
		MaxSupersteps:       cfg.Iterations,
		Cost:                cfg.Cost,
		IndependentErasures: cfg.ErasureModel == ErasureIndependent,
	})
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	states := eng.MasterStates()
	res := &Result{
		Counts: make([]int64, n),
		Stats:  stats,
		Layout: lay,
	}
	for v, st := range states {
		res.Counts[v] = st.Count
		res.TotalFrogs += st.Count
	}
	if cfg.Mode == ScatterSplit && cfg.Estimator == EstimatorEndpoint && res.TotalFrogs < int64(cfg.Walkers) {
		res.LostFrogs = int64(cfg.Walkers) - res.TotalFrogs
	}
	res.Estimate = Estimate(res.Counts, res.TotalFrogs)
	return res, nil
}

// Estimate converts raw tallies into the π̂N distribution (Definition
// 5), normalizing by total.
func Estimate(counts []int64, total int64) []float64 {
	est := make([]float64, len(counts))
	if total <= 0 {
		return est
	}
	for v, c := range counts {
		est[v] = float64(c) / float64(total)
	}
	return est
}

// SerialWalk is the single-machine reference implementation of the
// FrogWild process: N independent truncated-geometric random walks
// (Process 15 in the paper), with no engine, no partitioning and no
// partial synchronization. It returns the per-vertex tally; the sum is
// exactly walkers. Used to cross-validate the distributed
// implementation.
//
// The walkers are sharded across GOMAXPROCS goroutines by the walk
// kernel (internal/walk). Walker i starts uniformly, takes
// min(Geometric(pT), iterations) steps — both drawn from its own
// stream derived from (seed, i) — stops at a dangling vertex and
// tallies its endpoint, so the result is bit-identical for every
// GOMAXPROCS.
func SerialWalk(g *graph.Graph, walkers, iterations int, pT float64, seed uint64) ([]int64, error) {
	n := g.NumVertices()
	if n == 0 {
		return nil, errors.New("frogwild: empty graph")
	}
	if pT <= 0 || pT > 1 {
		return nil, fmt.Errorf("frogwild: teleport %v out of (0,1]", pT)
	}
	if walkers < 0 {
		return nil, fmt.Errorf("frogwild: negative walker count %d", walkers)
	}
	counts, _ := walk.Tally(g, walkers, false, func(s *walk.Scratch, i int) {
		stream := rng.DeriveValue(seed, 0x5E4, uint64(i))
		start := graph.VertexID(stream.Intn(n))
		left := walk.Length(&stream, pT, iterations)
		s.Add(stream, start, left)
	})
	return counts, nil
}
