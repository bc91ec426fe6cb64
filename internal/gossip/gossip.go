// Package gossip implements randomized rumor spreading (the classic
// push protocol) as a vertex program on the partial-synchronization
// engine. The FrogWild paper remarks (Section 3.3) that "any random
// walk or gossip style algorithm (that sends a single message to a
// random subset of its neighbors) can benefit by exploiting ps"; this
// package demonstrates that generality: each informed vertex pushes the
// rumor along one uniformly random out-edge per round, and the engine's
// ps knob thins mirror synchronization exactly as it does for FrogWild.
package gossip

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/rng"
)

// state is the per-vertex rumor state.
type state struct {
	// Informed reports whether the rumor has reached this vertex.
	Informed bool
	// Round is the superstep at which the rumor arrived (-1 before).
	Round int32
	// pushes is the number of pushes to route this superstep (1 while
	// informed).
	pushes int64
}

// program implements gas.Program, gas.Splitter and gas.Finalizer.
type program struct {
	origin graph.VertexID
	rounds int
}

// InitState implements gas.Program.
func (p *program) InitState(v graph.VertexID) (state, bool) {
	if v == p.origin {
		return state{Informed: true, Round: 0, pushes: 1}, true
	}
	return state{Round: -1}, false
}

// Apply implements gas.Program: become informed on first contact; every
// informed vertex pushes once per round.
func (p *program) Apply(v graph.VertexID, st state, _ float64, msg int64, hasMsg bool, ctx *gas.Context) (state, bool) {
	if !st.Informed && (hasMsg || v == p.origin && ctx.Superstep == 0) {
		st.Informed = true
		st.Round = int32(ctx.Superstep)
	}
	if !st.Informed {
		return st, false
	}
	st.pushes = 1
	return st, true
}

// Split implements gas.Splitter: the single push lands on one
// synchronized replica, chosen proportionally to local out-degree —
// i.e., the pushed edge is uniform over the enabled out-edges.
func (p *program) Split(v graph.VertexID, st state, weights []int, r *rng.Stream, shares []state) {
	total := 0
	for _, w := range weights {
		total += w
	}
	pick := r.Intn(total)
	for i, w := range weights {
		if pick < w {
			shares[i] = state{Informed: true, pushes: 1}
			break
		}
		pick -= w
	}
}

// ScatterLocal implements gas.Program: push along one uniformly random
// local out-edge.
func (p *program) ScatterLocal(v graph.VertexID, st state, neighbors []graph.VertexID, emit func(graph.VertexID, int64), ctx *gas.Context) {
	if st.pushes <= 0 || len(neighbors) == 0 {
		return
	}
	emit(neighbors[ctx.Rng.Intn(len(neighbors))], 1)
}

// CombineMsg implements gas.Program.
func (p *program) CombineMsg(a, b int64) int64 { return a + b }

// Sizes implements gas.Program.
func (p *program) Sizes() gas.Sizes { return gas.Sizes{State: 2, Msg: 1, Acc: 1} }

// Finalize implements gas.Finalizer: a rumor still in flight at the
// cutoff informs its destination at the final round.
func (p *program) Finalize(v graph.VertexID, st state, pending int64, hasPending bool) state {
	if !st.Informed && hasPending && pending > 0 {
		st.Informed = true
		st.Round = int32(p.rounds)
	}
	return st
}

// Config configures a rumor-spreading run.
type Config struct {
	// Origin is the initially informed vertex.
	Origin graph.VertexID
	// Rounds caps the protocol length. Required.
	Rounds int
	// PS is the mirror synchronization probability; 0 selects 1.
	PS float64
	// Machines is the cluster size; 0 selects 1.
	Machines int
	// Partitioner selects ingress; nil means random.
	Partitioner cluster.Partitioner
	// Seed drives all randomness.
	Seed uint64
	// Layout optionally reuses a prebuilt layout.
	Layout *cluster.Layout
}

// Result reports a run's outcome.
type Result struct {
	// Informed is the number of vertices reached.
	Informed int
	// RoundReached[v] is the superstep the rumor reached v, or -1.
	RoundReached []int32
	// InformedByRound[r] is the cumulative informed count after round r.
	InformedByRound []int
	// Stats carries the engine metrics.
	Stats *gas.RunStats
}

// Run executes push-protocol rumor spreading.
func Run(g *graph.Graph, cfg Config) (*Result, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("gossip: empty graph")
	}
	if int(cfg.Origin) >= g.NumVertices() {
		return nil, fmt.Errorf("gossip: origin %d out of range", cfg.Origin)
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("gossip: Rounds must be positive, got %d", cfg.Rounds)
	}
	ps := cfg.PS
	if ps == 0 {
		ps = 1
	}
	if ps < 0 || ps > 1 {
		return nil, fmt.Errorf("gossip: ps %v out of [0,1]", cfg.PS)
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
	prog := &program{origin: cfg.Origin, rounds: cfg.Rounds}
	eng, err := gas.New[state, int64](lay, prog, gas.Options{
		PS:            ps,
		Seed:          cfg.Seed,
		MaxSupersteps: cfg.Rounds,
		AlwaysActive:  true, // informed vertices push every round
	})
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats, RoundReached: make([]int32, g.NumVertices())}
	maxRound := 0
	for v, st := range eng.MasterStates() {
		res.RoundReached[v] = st.Round
		if st.Informed {
			res.Informed++
			if int(st.Round) > maxRound {
				maxRound = int(st.Round)
			}
		}
	}
	res.InformedByRound = make([]int, stats.Supersteps+1)
	for _, st := range eng.MasterStates() {
		if st.Informed && int(st.Round) < len(res.InformedByRound) {
			res.InformedByRound[st.Round]++
		}
	}
	for r := 1; r < len(res.InformedByRound); r++ {
		res.InformedByRound[r] += res.InformedByRound[r-1]
	}
	return res, nil
}
