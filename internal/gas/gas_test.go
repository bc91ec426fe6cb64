package gas

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/rng"
)

// tokenProgram floods integer tokens along out-edges: every vertex
// forwards the tokens it receives to all successors. It exercises
// messaging, activation and metering without randomness.
type tokenProgram struct{}

type tokState struct {
	Seen int64
	Hold int64
}

func (tokenProgram) InitState(v graph.VertexID) (tokState, bool) {
	if v == 0 {
		return tokState{Hold: 1}, true
	}
	return tokState{}, false
}
func (tokenProgram) Apply(v graph.VertexID, st tokState, _ float64, msg int64, hasMsg bool, ctx *Context) (tokState, bool) {
	var in int64
	if ctx.Superstep == 0 {
		in = st.Hold
	}
	if hasMsg {
		in += msg
	}
	st.Seen += in
	st.Hold = in
	return st, in > 0
}
func (tokenProgram) ScatterLocal(v graph.VertexID, st tokState, neighbors []graph.VertexID, emit func(graph.VertexID, int64), ctx *Context) {
	for _, d := range neighbors {
		emit(d, st.Hold)
	}
}
func (tokenProgram) CombineMsg(a, b int64) int64 { return a + b }
func (tokenProgram) Sizes() Sizes                { return Sizes{State: 8, Msg: 8, Acc: 8} }

func ringLayout(t testing.TB, n, machines int) *cluster.Layout {
	t.Helper()
	lay, err := cluster.NewLayout(gen.Cycle(n), machines, cluster.Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// faultProgram is tokenProgram whose scatter fails the way a failed
// paged read of the graph does: it panics with an error.
type faultProgram struct{ tokenProgram }

var errInjectedFault = errors.New("injected read fault")

func (faultProgram) ScatterLocal(graph.VertexID, tokState, []graph.VertexID, func(graph.VertexID, int64), *Context) {
	panic(errInjectedFault)
}

// runRecovering runs eng and returns what Run panicked with, if anything.
func runRecovering[V, M any](eng *Engine[V, M]) (panicked any) {
	defer func() { panicked = recover() }()
	eng.Run()
	return nil
}

// TestMachinePanicReachesRunCaller: a panic on a machine's goroutine
// surfaces from Run on the caller's goroutine, where the caller can
// recover it, on one machine and on several; it does not kill the
// process.
func TestMachinePanicReachesRunCaller(t *testing.T) {
	for _, machines := range []int{1, 4} {
		lay := ringLayout(t, 10, machines)
		eng, err := New[tokState, int64](lay, faultProgram{}, Options{PS: 1, Seed: 9, MaxSupersteps: 4})
		if err != nil {
			t.Fatal(err)
		}
		if p := runRecovering(eng); p != errInjectedFault {
			t.Fatalf("machines=%d: Run panicked with %v, want the scatter's %v", machines, p, errInjectedFault)
		}
	}
}

func TestTokenTravelsRing(t *testing.T) {
	// A single token injected at vertex 0 of a 10-cycle must be at
	// vertex (steps mod 10) pending after `steps` supersteps; each
	// visited vertex saw it once.
	for _, machines := range []int{1, 3, 7} {
		lay := ringLayout(t, 10, machines)
		eng, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: 1, Seed: 9, MaxSupersteps: 4})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Supersteps != 4 {
			t.Fatalf("machines=%d: supersteps = %d", machines, stats.Supersteps)
		}
		states := eng.MasterStates()
		for v := 0; v < 10; v++ {
			want := int64(0)
			if v <= 3 { // applied at steps 0..3
				want = 1
			}
			if states[v].Seen != want {
				t.Errorf("machines=%d vertex %d: seen %d want %d", machines, v, states[v].Seen, want)
			}
		}
	}
}

func TestQuiescenceStopsEarly(t *testing.T) {
	// Star leaves point at hub only; hub points at leaves. Token at a
	// leaf: leaf -> hub -> all leaves -> hub -> ... never quiesces.
	// But on a path-like graph (cycle truncated by max steps) we can
	// check quiescence with a program that stops forwarding.
	lay := ringLayout(t, 5, 2)
	// Program forwards only at superstep 0.
	eng, err := New[tokState, int64](lay, onceProgram{}, Options{PS: 1, Seed: 1, MaxSupersteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps > 3 {
		t.Errorf("engine should quiesce quickly, ran %d supersteps", stats.Supersteps)
	}
}

// onceProgram emits only from vertex 0 at superstep 0; receivers do
// not forward.
type onceProgram struct{ tokenProgram }

func (onceProgram) Apply(v graph.VertexID, st tokState, _ float64, msg int64, hasMsg bool, ctx *Context) (tokState, bool) {
	if ctx.Superstep == 0 && v == 0 {
		st.Hold = 1
		return st, true
	}
	if hasMsg {
		st.Seen += msg
	}
	return st, false
}

func TestStopWhen(t *testing.T) {
	lay := ringLayout(t, 10, 2)
	stopped := 0
	eng, err := New[tokState, int64](lay, tokenProgram{}, Options{
		PS: 1, Seed: 1, MaxSupersteps: 50,
		StopWhen: func(step int, agg float64) bool {
			stopped = step
			return step >= 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 3 || stopped != 2 {
		t.Errorf("supersteps = %d stopped at %d", stats.Supersteps, stopped)
	}
}

func TestOptionValidation(t *testing.T) {
	lay := ringLayout(t, 4, 1)
	if _, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: 1.2, MaxSupersteps: 1}); err == nil {
		t.Error("ps > 1 should error")
	}
	if _, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: -0.1, MaxSupersteps: 1}); err == nil {
		t.Error("ps < 0 should error")
	}
	if _, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: 1}); err == nil {
		t.Error("MaxSupersteps 0 should error")
	}
	if _, err := New[tokState, int64](nil, tokenProgram{}, Options{PS: 1, MaxSupersteps: 1}); err == nil {
		t.Error("nil layout should error")
	}
}

func TestSingleMachineNoNetwork(t *testing.T) {
	lay := ringLayout(t, 20, 1)
	eng, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: 1, Seed: 2, MaxSupersteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Net.ClassBytes(cluster.TrafficSync) +
		stats.Net.ClassBytes(cluster.TrafficSignal) +
		stats.Net.ClassBytes(cluster.TrafficGather); got != 0 {
		t.Errorf("single machine sent %d data bytes, want 0", got)
	}
}

func TestDeterminism(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 300, MeanOutDeg: 6, DegExponent: 2.1, PrefExponent: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]tokState, *RunStats) {
		eng, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: 0.5, Seed: 77, MaxSupersteps: 5})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]tokState, len(eng.MasterStates()))
		copy(out, eng.MasterStates())
		return out, stats
	}
	a, sa := run()
	b, sb := run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("state diverged at vertex %d: %+v vs %+v", v, a[v], b[v])
		}
	}
	if sa.Net.TotalBytes != sb.Net.TotalBytes {
		t.Errorf("network bytes diverged: %d vs %d", sa.Net.TotalBytes, sb.Net.TotalBytes)
	}
}

func TestPSReducesSyncTraffic(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 500, MeanOutDeg: 8, DegExponent: 2.0, PrefExponent: 1.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 16, cluster.Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	syncBytes := func(ps float64) int64 {
		eng, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: ps, Seed: 4, MaxSupersteps: 6})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats.Net.ClassBytes(cluster.TrafficSync)
	}
	full := syncBytes(1.0)
	tenth := syncBytes(0.1)
	if full == 0 {
		t.Fatal("no sync traffic at ps=1?")
	}
	ratio := float64(tenth) / float64(full)
	if ratio > 0.35 {
		t.Errorf("ps=0.1 sync bytes ratio = %v, want well below 1 (≈0.1)", ratio)
	}
}

func TestAggregate(t *testing.T) {
	lay := ringLayout(t, 10, 2)
	eng, err := New[tokState, int64](lay, aggProgram{}, Options{PS: 1, Seed: 1, MaxSupersteps: 3, AlwaysActive: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for step, agg := range stats.AggregateByStep {
		if agg != 10 { // each of the 10 vertices aggregates 1.0
			t.Errorf("step %d aggregate = %v, want 10", step, agg)
		}
	}
	for step, act := range stats.ActiveByStep {
		if act != 10 {
			t.Errorf("step %d active = %d, want 10", step, act)
		}
	}
}

type aggProgram struct{ tokenProgram }

func (aggProgram) Apply(v graph.VertexID, st tokState, _ float64, _ int64, _ bool, ctx *Context) (tokState, bool) {
	ctx.Aggregate(1)
	return st, false
}

func TestSimTimePositive(t *testing.T) {
	lay := ringLayout(t, 50, 4)
	eng, err := New[tokState, int64](lay, tokenProgram{}, Options{PS: 1, Seed: 1, MaxSupersteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimSeconds <= 0 {
		t.Error("simulated time must be positive")
	}
	if len(stats.SimSecondsPerStep) != stats.Supersteps {
		t.Error("per-step times length mismatch")
	}
	sum := 0.0
	for _, s := range stats.SimSecondsPerStep {
		sum += s
	}
	if diff := sum - stats.SimSeconds; diff > 1e-9 || diff < -1e-9 {
		t.Error("per-step times do not sum to total")
	}
	if stats.WallSeconds <= 0 {
		t.Error("wall time must be positive")
	}
}

// splitterProgram tests the Splitter path: state carries a count that
// must be conserved across shares.
type splitterProgram struct{ tokenProgram }

func (splitterProgram) Split(v graph.VertexID, st tokState, weights []int, r *rng.Stream, shares []tokState, filled []bool) {
	total := 0
	for _, w := range weights {
		total += w
	}
	remaining := st.Hold
	for i := 0; i < len(weights)-1; i++ {
		x := int64(r.Binomial(int(remaining), float64(weights[i])/float64(total)))
		shares[i].Hold = x
		filled[i] = x > 0
		remaining -= x
		total -= weights[i]
	}
	shares[len(weights)-1].Hold = remaining
	filled[len(weights)-1] = remaining > 0
}

func (splitterProgram) ScatterLocal(v graph.VertexID, st tokState, neighbors []graph.VertexID, emit func(graph.VertexID, int64), ctx *Context) {
	if st.Hold <= 0 {
		return
	}
	counts := make([]int64, len(neighbors))
	ctx.Rng.MultinomialSplit(int(st.Hold), counts)
	for i, c := range counts {
		if c > 0 {
			emit(neighbors[i], c)
		}
	}
}

func TestSplitterConservesTokens(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 200, MeanOutDeg: 5, DegExponent: 2.1, PrefExponent: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []float64{1.0, 0.5, 0.1} {
		lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New[tokState, int64](lay, splitterProgram{}, Options{PS: ps, Seed: 13, MaxSupersteps: 6})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// After 6 steps, the single token from vertex 0 is somewhere in
		// flight or held; total "Seen" counts how many vertex-visits
		// occurred: exactly 7 apply deliveries (step 0 + 6 hops) would
		// need inbox draining; instead check token never duplicated:
		// every state.Hold is 0 or 1 and at most one vertex held it per
		// superstep is implied by Seen sums.
		var totalSeen int64
		for _, st := range eng.MasterStates() {
			totalSeen += st.Seen
		}
		if totalSeen != 6 { // steps 0..5 each delivered exactly one token-visit
			t.Errorf("ps=%v: total visits = %d, want 6 (token duplicated or lost)", ps, totalSeen)
		}
	}
}
