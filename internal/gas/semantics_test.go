package gas

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// gatherProgram is a Gatherer that sums neighbor values over in-edges,
// so what a gather reads is observable: each vertex's state counts how
// much its in-neighbors held at gather time. Its scatter emits nothing.
type gatherProgram struct{}

type gatherState struct {
	Value float64
	Seen  float64
}

func (gatherProgram) InitState(v graph.VertexID) (gatherState, bool) {
	return gatherState{Value: 1}, true
}
func (gatherProgram) GatherLocal(v graph.VertexID, neighbors []graph.VertexID, read func(graph.VertexID) gatherState, ctx *Context) float64 {
	sum := 0.0
	for _, u := range neighbors {
		sum += read(u).Value
	}
	return sum
}
func (gatherProgram) Apply(v graph.VertexID, st gatherState, acc float64, _ int64, _ bool, ctx *Context) (gatherState, bool) {
	st.Seen = acc
	st.Value = st.Value * 2 // changes every superstep
	return st, true
}
func (gatherProgram) ScatterLocal(graph.VertexID, gatherState, []graph.VertexID, func(graph.VertexID, int64), *Context) {
}
func (gatherProgram) CombineMsg(a, b int64) int64 { return a + b }
func (gatherProgram) Sizes() Sizes                { return Sizes{State: 16, Msg: 8, Acc: 8} }

// TestGatherFullSyncSeesFreshValues: with ps=1 every replica is synced
// every superstep, so at superstep s each gather sees the values
// doubled s times: Seen = inDegree * 2^s, whichever machine owns the
// edge.
func TestGatherFullSyncSeesFreshValues(t *testing.T) {
	g := gen.Cycle(12)
	lay, err := cluster.NewLayout(g, 4, cluster.Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New[gatherState, int64](lay, gatherProgram{}, Options{
		PS: 1, Seed: 1, MaxSupersteps: 3, AlwaysActive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// After 3 supersteps, the last gather (superstep 2) read values that
	// had been doubled twice: 1 * 2^2 = 4 per in-neighbor; every cycle
	// vertex has exactly one in-neighbor.
	for v, st := range eng.MasterStates() {
		if st.Seen != 4 {
			t.Fatalf("vertex %d saw %v at last gather, want 4 (fresh replicas)", v, st.Seen)
		}
	}
}

// TestGatherRefusesPartialSync: a Gatherer reads master states, which
// is what its replicas hold only when every mirror is synchronized, so
// New refuses one at any ps below 1. A program without a gather phase
// runs at any ps.
func TestGatherRefusesPartialSync(t *testing.T) {
	lay, err := cluster.NewLayout(gen.Cycle(12), 4, cluster.Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []float64{0, 0.5, 0.999} {
		if _, err := New[gatherState, int64](lay, gatherProgram{}, Options{PS: ps, Seed: 1, MaxSupersteps: 3, AlwaysActive: true}); err == nil {
			t.Errorf("a Gatherer at ps %v was accepted", ps)
		}
		if _, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: ps, Seed: 1, MaxSupersteps: 3}); err != nil {
			t.Errorf("a program without a gather phase at ps %v was refused: %v", ps, err)
		}
	}
}

// TestSplitterConservationProperty: a splitter program that carries a
// token count must conserve it across arbitrary machine counts, ps
// values and superstep counts.
func TestSplitterConservationProperty(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 150, MeanOutDeg: 4, DegExponent: 2.2, PrefExponent: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	f := func(machRaw, psRaw, stepRaw uint8, seed uint16) bool {
		machines := int(machRaw%24) + 1
		ps := float64(psRaw%11) / 10
		steps := int(stepRaw%6) + 1
		lay, err := cluster.NewLayout(g, machines, cluster.Random{}, uint64(seed))
		if err != nil {
			return false
		}
		eng, err := New[tokState, int64](lay, countingSplitter{}, Options{
			PS: ps, Seed: uint64(seed), MaxSupersteps: steps,
		})
		if err != nil {
			return false
		}
		if _, err := eng.Run(); err != nil {
			return false
		}
		// Tokens: 5 at vertex 0 initially; after the run every token is
		// either held (Hold) or was finalized into Seen.
		var total int64
		for _, st := range eng.MasterStates() {
			total += st.Seen
		}
		return total == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// countingSplitter forwards 5 tokens forever, finalizing them into
// Seen at the end.
type countingSplitter struct{ splitterProgram }

func (countingSplitter) InitState(v graph.VertexID) (tokState, bool) {
	if v == 0 {
		return tokState{Hold: 5}, true
	}
	return tokState{}, false
}

func (countingSplitter) Apply(v graph.VertexID, st tokState, _ float64, msg int64, hasMsg bool, ctx *Context) (tokState, bool) {
	var in int64
	if ctx.Superstep == 0 {
		in = st.Hold
	}
	if hasMsg {
		in += msg
	}
	st.Hold = in
	return st, in > 0
}

func (countingSplitter) Finalize(v graph.VertexID, st tokState, pending int64, hasPending bool) tokState {
	if hasPending {
		st.Seen = pending // tokens in flight land here
	}
	return st
}

// TestEngineReuseForbidden documents single-use semantics: a second Run
// continues from the final state rather than restarting, so results
// differ. (The API contract says construct a fresh engine per run.)
func TestFinalizerReceivesPending(t *testing.T) {
	g := gen.Cycle(6)
	lay, err := cluster.NewLayout(g, 2, cluster.Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New[tokState, int64](lay, countingSplitter{}, Options{PS: 1, Seed: 1, MaxSupersteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// After 2 supersteps on the cycle, all 5 tokens are pending at
	// vertex 2.
	states := eng.MasterStates()
	if states[2].Seen != 5 {
		t.Fatalf("pending tokens not finalized at vertex 2: %+v", states)
	}
}

// TestControlTrafficCharged: every superstep charges barrier control
// bytes even when nothing else happens.
func TestControlTrafficCharged(t *testing.T) {
	g := gen.Cycle(4)
	lay, err := cluster.NewLayout(g, 3, cluster.Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New[tokState, int64](lay, onceProgram{}, Options{PS: 1, Seed: 1, MaxSupersteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Net.ClassBytes(cluster.TrafficControl) <= 0 {
		t.Error("no control traffic metered")
	}
}
