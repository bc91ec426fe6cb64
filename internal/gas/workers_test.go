package gas

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// drawProgram is tokenProgram started with a token on every vertex,
// whose replicas each send their tokens to one local out-neighbour drawn
// from ctx.Rng: the states depend on every scatter stream the engine
// derives, so a stream that followed the pool's shape would show.
type drawProgram struct{ tokenProgram }

func (drawProgram) InitState(graph.VertexID) (tokState, bool) { return tokState{Hold: 1}, true }
func (drawProgram) ScatterLocal(_ graph.VertexID, st tokState, neighbors []graph.VertexID, emit func(graph.VertexID, int64), ctx *Context) {
	emit(neighbors[ctx.Rng.Uint64n(uint64(len(neighbors)))], st.Hold)
}

// runTokens runs drawProgram over a power-law graph at GOMAXPROCS procs
// and returns the final states plus stats.
func runTokens(t *testing.T, lay *cluster.Layout, procs int) ([]tokState, *RunStats) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng, err := New[tokState, int64](lay, drawProgram{}, Options{
		PS: 1, Seed: 5, MaxSupersteps: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	stats.WallSeconds = 0 // the one field legitimately run-dependent
	return eng.MasterStates(), stats
}

// TestPoolSizeBitIdentical pins the engine-level guarantee: running
// the machines' phases on a pool of any size returns the same states
// and the same meters, scatter draws included. The pool has
// min(GOMAXPROCS, machines) workers, so five machines at GOMAXPROCS
// 1/2/3/5 run inline, on two workers, on three (which does not divide
// the machine count) and on one worker per machine.
func TestPoolSizeBitIdentical(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 2000, MeanOutDeg: 6, DegExponent: 2.0, PrefExponent: 1.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 5, cluster.Random{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	refStates, refStats := runTokens(t, lay, 1)
	for _, procs := range []int{2, 3, 5} {
		states, stats := runTokens(t, lay, procs)
		if !reflect.DeepEqual(states, refStates) {
			t.Errorf("GOMAXPROCS=%d: master states diverge from GOMAXPROCS=1", procs)
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Errorf("GOMAXPROCS=%d: stats diverge from GOMAXPROCS=1\n got %+v\nwant %+v", procs, stats, refStats)
		}
	}
}
