// Package glpr implements the baseline the paper compares against:
// "GraphLab PR", synchronous power-iteration PageRank as a GAS vertex
// program on the vertex-cut engine. Every superstep gathers
// rank/out-degree over in-edges, one partial per machine owning some of
// them, applies the PageRank update at the master, synchronizes every
// mirror (ps = 1, as stock PowerGraph does) and executes scatter over
// out-edges. Partial synchronization is the paper's change to FrogWild
// only: the engine gathers from the states the masters hold, which is
// what fully synchronized mirrors hold, and refuses a gathering program
// at any other ps.
//
// Two modes reproduce the paper's baselines:
//
//   - Fixed iterations (the paper's "GraphLab PR 1 iters" / "2 iters"
//     reduced-accuracy heuristic): run exactly Iterations supersteps
//     with every vertex active.
//   - Exact (the paper's "GraphLab PR exact"): iterate until the L1
//     residual drops below Tolerance.
package glpr

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/pagerank"
)

// state is the per-vertex PageRank state.
type state struct {
	Rank  float64
	Delta float64
}

// signal is the (unused) message type; GL PR in synchronous mode drives
// activation through AlwaysActive, like power iteration.
type signal struct{}

// program implements gas.Program and gas.Gatherer for PageRank.
type program struct {
	g        *graph.Graph
	n        int
	teleport float64
}

// InitState implements gas.Program: uniform initial rank, all active.
func (p *program) InitState(v graph.VertexID) (state, bool) {
	return state{Rank: 1 / float64(p.n)}, true
}

// GatherLocal implements gas.Gatherer: partial sum of rank/out-degree
// over the in-neighbors whose edges live on this machine.
func (p *program) GatherLocal(v graph.VertexID, neighbors []graph.VertexID, read func(graph.VertexID) state, ctx *gas.Context) float64 {
	sum := 0.0
	for _, u := range neighbors {
		d := p.g.OutDegree(u)
		if d == 0 {
			continue // dangling in-neighbors contribute via the uniform term only
		}
		sum += read(u).Rank / float64(d)
	}
	return sum
}

// Apply implements gas.Program: the PageRank fixed-point update.
func (p *program) Apply(v graph.VertexID, st state, acc float64, _ signal, _ bool, ctx *gas.Context) (state, bool) {
	newRank := p.teleport/float64(p.n) + (1-p.teleport)*acc
	delta := math.Abs(newRank - st.Rank)
	ctx.Aggregate(delta)
	return state{Rank: newRank, Delta: delta}, true
}

// ScatterLocal implements gas.Program. PowerGraph's PageRank scatter
// walks the local out-edges (the engine meters that CPU work); in
// synchronous all-active mode it emits no signals.
func (p *program) ScatterLocal(v graph.VertexID, st state, neighbors []graph.VertexID, emit func(graph.VertexID, signal), ctx *gas.Context) {
}

// CombineMsg implements gas.Program.
func (p *program) CombineMsg(a, b signal) signal { return signal{} }

// Sizes implements gas.Program: PowerGraph syncs the vertex data
// (rank + delta, 16 bytes); gather accumulators are one float64.
func (p *program) Sizes() gas.Sizes { return gas.Sizes{State: 16, Msg: 1, Acc: 8} }

// Config configures a GL PR run.
type Config struct {
	// Machines is the cluster size.
	Machines int
	// Partitioner selects the ingress strategy; nil means random.
	Partitioner cluster.Partitioner
	// Teleport is pT; 0 selects the conventional 0.15.
	Teleport float64
	// Iterations, when > 0, runs exactly this many supersteps (the
	// paper's reduced-iterations baseline). When 0, Exact mode runs
	// until Tolerance.
	Iterations int
	// Tolerance is the exact-mode L1 residual threshold; 0 selects
	// 1e-9.
	Tolerance float64
	// MaxIterations caps exact mode; 0 selects 200.
	MaxIterations int
	// Seed drives partitioning and engine randomness.
	Seed uint64
	// Cost overrides the cost model; zero value selects the default.
	Cost cluster.CostModel
	// Layout, when non-nil, reuses a prebuilt layout (Machines and
	// Partitioner are then ignored).
	Layout *cluster.Layout
}

// Result is a GL PR run's output.
type Result struct {
	// Rank is the (normalized) PageRank estimate.
	Rank []float64
	// Stats reports engine metrics: supersteps, traffic, simulated time.
	Stats *gas.RunStats
	// Layout is the cluster layout used (reusable for further runs).
	Layout *cluster.Layout
}

// Run executes GraphLab-style PageRank on the distributed engine.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("glpr: empty graph")
	}
	teleport := cfg.Teleport
	if teleport == 0 {
		teleport = pagerank.DefaultTeleport
	}
	if teleport < 0 || teleport > 1 {
		return nil, fmt.Errorf("glpr: teleport %v out of [0,1]", teleport)
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
	prog := &program{g: g, n: g.NumVertices(), teleport: teleport}

	opts := gas.Options{
		PS:           1, // stock PowerGraph: full synchronization, which gathering needs
		Seed:         cfg.Seed,
		AlwaysActive: true,
		Cost:         cfg.Cost,
	}
	if cfg.Iterations > 0 {
		opts.MaxSupersteps = cfg.Iterations
	} else {
		tol := cfg.Tolerance
		if tol == 0 {
			tol = 1e-9
		}
		maxIter := cfg.MaxIterations
		if maxIter == 0 {
			maxIter = 200
		}
		opts.MaxSupersteps = maxIter
		opts.StopWhen = func(step int, aggregate float64) bool {
			return aggregate < tol
		}
	}
	eng, err := gas.New[state, signal](lay, prog, opts)
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	states := eng.MasterStates()
	rank := make([]float64, len(states))
	sum := 0.0
	for i, s := range states {
		rank[i] = s.Rank
		sum += s.Rank
	}
	// Dangling leakage (graphs with out-degree-zero vertices lose mass
	// in the distributed formulation, as real PowerGraph PR does):
	// renormalize so the estimate is a distribution.
	if sum > 0 {
		for i := range rank {
			rank[i] /= sum
		}
	}
	return &Result{Rank: rank, Stats: stats, Layout: lay}, nil
}
