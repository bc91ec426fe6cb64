package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/rng"
)

func testGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: n, MeanOutDeg: 8, DegExponent: 2.1, PrefExponent: 1.0, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "random", "oblivious", "grid"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestLayoutValidateAllPartitioners(t *testing.T) {
	g := testGraph(t, 800, 1)
	for _, p := range []Partitioner{Random{}, Oblivious{}, Grid{}} {
		for _, machines := range []int{1, 2, 5, 16, 24} {
			lay, err := NewLayout(g, machines, p, 7)
			if err != nil {
				t.Fatalf("%s/%d: %v", p.Name(), machines, err)
			}
			if err := lay.Validate(); err != nil {
				t.Fatalf("%s/%d: %v", p.Name(), machines, err)
			}
		}
	}
}

func TestLayoutSingleMachine(t *testing.T) {
	g := testGraph(t, 200, 2)
	lay, err := NewLayout(g, 1, Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rf := lay.ReplicationFactor(); rf != 1 {
		t.Errorf("replication factor on 1 machine = %v, want 1", rf)
	}
	if owned := lay.edges[0]; owned != g.NumEdges() {
		t.Errorf("single machine owns %d edges, want %d", owned, g.NumEdges())
	}
	if len(lay.Masters(0)) != g.NumVertices() {
		t.Errorf("single machine masters %d vertices, want %d", len(lay.Masters(0)), g.NumVertices())
	}
}

func TestReplicationGrowsWithMachines(t *testing.T) {
	g := testGraph(t, 2000, 3)
	prev := 0.0
	for _, machines := range []int{1, 4, 16} {
		lay, err := NewLayout(g, machines, Random{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rf := lay.ReplicationFactor()
		if rf < prev {
			t.Errorf("replication factor decreased: %v -> %v at %d machines", prev, rf, machines)
		}
		if rf > float64(machines) {
			t.Errorf("replication factor %v exceeds machine count %d", rf, machines)
		}
		prev = rf
	}
	if prev < 1.5 {
		t.Errorf("16-machine replication factor %v suspiciously low for a power-law graph", prev)
	}
}

func TestObliviousBeatsRandomReplication(t *testing.T) {
	g := testGraph(t, 3000, 4)
	layR, err := NewLayout(g, 16, Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	layO, err := NewLayout(g, 16, Oblivious{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if layO.ReplicationFactor() >= layR.ReplicationFactor() {
		t.Errorf("oblivious replication %v should beat random %v",
			layO.ReplicationFactor(), layR.ReplicationFactor())
	}
}

func TestGridBoundsReplication(t *testing.T) {
	g := testGraph(t, 3000, 5)
	lay, err := NewLayout(g, 16, Grid{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4x4 grid: any vertex's replicas live in one row + one column,
	// so at most 4+4-1 = 7 replicas.
	for v := 0; v < g.NumVertices(); v++ {
		if p := len(lay.Presences(uint32(v))); p > 7 {
			t.Fatalf("vertex %d has %d replicas under grid, bound is 7", v, p)
		}
	}
}

func TestMasterIsPresence(t *testing.T) {
	g := testGraph(t, 500, 6)
	lay, err := NewLayout(g, 8, Oblivious{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		pres := lay.Presences(uint32(v))
		if len(pres) == 0 {
			t.Fatalf("vertex %d hosted nowhere", v)
		}
		if pres[0] != lay.MasterOf(uint32(v)) {
			t.Fatalf("vertex %d: master %d not first presence", v, lay.MasterOf(uint32(v)))
		}
	}
}

func TestLayoutDeterministic(t *testing.T) {
	g := testGraph(t, 600, 7)
	a, err := NewLayout(g, 12, Oblivious{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLayout(g, 12, Oblivious{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if a.MasterOf(uint32(v)) != b.MasterOf(uint32(v)) {
			t.Fatal("layouts differ for same seed")
		}
	}
	if !slices.Equal(a.placement, b.placement) || !slices.Equal(a.edges, b.edges) {
		t.Fatal("edge placement differs for same seed")
	}
}

func TestLocalViewConsistency(t *testing.T) {
	g := testGraph(t, 400, 8)
	lay, err := NewLayout(g, 6, Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every local out-edge must exist in the global graph, and a
	// machine's local out-degree counts its local out-edges.
	adj := g.NewAdjReader()
	defer adj.Release()
	deg := make([]int, 6)
	var nbrs []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		lay.LocalOutDegrees(graph.VertexID(v), deg)
		for _, m := range lay.Presences(graph.VertexID(v)) {
			nbrs = lay.LocalOutNeighbors(adj, graph.VertexID(v), int(m), nbrs[:0])
			for _, d := range nbrs {
				if !slices.Contains(adj.OutNeighbors(graph.VertexID(v)), d) {
					t.Fatalf("machine %d has phantom edge %d->%d", m, v, d)
				}
			}
			if deg[m] != len(nbrs) {
				t.Fatalf("vertex %d on machine %d: local out-degree %d, %d local out-edges", v, m, deg[m], len(nbrs))
			}
		}
	}
}

// TestInCSRsBuiltOnFirstUse: NewLayout builds no in-index, and the
// first readers, racing from several goroutines, all get the one index
// a single build made, holding the lists a serial build of the same
// layout gives.
func TestInCSRsBuiltOnFirstUse(t *testing.T) {
	g := testGraph(t, 1500, 16)
	const machines, readers = 8, 8
	lay, err := NewLayout(g, machines, Random{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lay.in.Load() != nil {
		t.Fatal("NewLayout built the in-index")
	}
	ref, err := NewLayout(g, machines, Random{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.InIndex()

	got := make([]*InIndex, readers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			<-start
			got[r] = lay.InIndex()
		}()
	}
	close(start)
	wg.Wait()
	for r, x := range got {
		if x != got[0] {
			t.Fatalf("reader %d got another in-index than reader 0: the index was built more than once", r)
		}
	}
	if !slices.Equal(got[0].off, want.off) || !slices.Equal(got[0].src, want.src) || !slices.Equal(got[0].machine, want.machine) {
		t.Fatal("the in-index built under concurrent first use differs from a serial build")
	}
}

// checkInIndex holds lay's in-index to its definition, built here the
// slow way: every in-edge of the graph appears exactly once, tagged
// with the machine the placement gave it, each vertex's entries grouped
// by machine in ascending order and each group in CSR sweep order.
func checkInIndex(lay *Layout) error {
	g := lay.g
	type entry struct {
		src     graph.VertexID
		machine uint16
	}
	want := make([][]entry, g.NumVertices())
	r := g.NewAdjReader()
	defer r.Release()
	i := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range r.OutNeighbors(graph.VertexID(v)) {
			want[d] = append(want[d], entry{graph.VertexID(v), lay.placement[i]})
			i++
		}
	}
	x := lay.InIndex()
	if len(x.src) != len(x.machine) || int64(len(x.src)) != g.NumEdges() {
		return fmt.Errorf("in-index holds %d sources and %d tags for %d edges", len(x.src), len(x.machine), g.NumEdges())
	}
	for d, es := range want {
		slices.SortStableFunc(es, func(a, b entry) int { return int(a.machine) - int(b.machine) })
		src, machine := x.In(graph.VertexID(d))
		if len(src) != len(es) {
			return fmt.Errorf("vertex %d: %d in-edges indexed, %d in the graph", d, len(src), len(es))
		}
		for k, e := range es {
			if src[k] != e.src || machine[k] != e.machine {
				return fmt.Errorf("vertex %d, entry %d: %d on machine %d, want %d on machine %d", d, k, src[k], machine[k], e.src, e.machine)
			}
		}
	}
	return nil
}

// TestInIndexHoldsEveryInEdgeOnce checks the in-index against its
// definition on graphs with and without isolated vertices, self loops
// and repeated edges, for every partitioner, below and beyond 64
// machines.
func TestInIndexHoldsEveryInEdgeOnce(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"powerlaw": testGraph(t, 700, 15),
		"sparse":   sparseGraph(),
	}
	for name, g := range graphs {
		for _, p := range []Partitioner{Random{}, Oblivious{}, Grid{}, HDRF{}} {
			for _, machines := range []int{1, 3, 16, 65, 130} {
				lay, err := NewLayout(g, machines, p, 5)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkInIndex(lay); err != nil {
					t.Fatalf("%s/%s/%d machines: %v", name, p.Name(), machines, err)
				}
			}
		}
	}
}

// failingPager serves a graph's adjacency from resident arrays, and the
// armed cursor read fails the way a failed paged read does: it panics
// with an error.
type failingPager struct {
	out, in []graph.VertexID
	fail    atomic.Bool
}

var errReadFault = errors.New("injected read fault")

func (p *failingPager) NewCursor() graph.AdjCursor  { return failingCursor{p} }
func (p *failingPager) Stats() graph.PageCacheStats { return graph.PageCacheStats{} }
func (p *failingPager) Close() error                { return nil }

type failingCursor struct{ p *failingPager }

func (c failingCursor) read(lo int64) {
	if lo > 0 && c.p.fail.Load() {
		panic(errReadFault)
	}
}
func (c failingCursor) Out(i int64) graph.VertexID            { c.read(i); return c.p.out[i] }
func (c failingCursor) TryOut(i int64) (graph.VertexID, bool) { return c.p.out[i], true }
func (c failingCursor) OutRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	c.read(lo)
	return append(dst, c.p.out[lo:hi]...)
}
func (c failingCursor) InRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	c.read(lo)
	return append(dst, c.p.in[lo:hi]...)
}
func (failingCursor) OutPage(i int64) int64 { return i / 1024 }
func (failingCursor) PageSwitches() uint64  { return 0 }
func (failingCursor) Release()              {}

// TestInIndexFailedBuildStartsOver: a build that a failed graph read
// aborts panics with the read's error, leaves no index behind, and the
// next call, with the storage healthy again, builds the index a layout
// over resident storage builds.
func TestInIndexFailedBuildStartsOver(t *testing.T) {
	g := testGraph(t, 800, 17)
	csr := g.CSRView()
	pager := &failingPager{out: csr.OutAdj, in: csr.InAdj}
	pg, err := graph.FromPagedCSR(graph.PagedCSR{
		NumVertices: csr.NumVertices, NumEdges: csr.NumEdges(),
		OutOff: csr.OutOff, InOff: csr.InOff, Pager: pager,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := NewLayout(pg, 6, Random{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pager.fail.Store(true)
	func() {
		defer func() {
			if p := recover(); p != errReadFault {
				t.Fatalf("in-index build over failing storage panicked with %v, want %v", p, errReadFault)
			}
		}()
		lay.InIndex()
	}()
	if lay.in.Load() != nil {
		t.Fatal("an aborted build left an in-index behind")
	}
	pager.fail.Store(false)
	ref, err := NewLayout(g, 6, Random{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, want := lay.InIndex(), ref.InIndex()
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.src, want.src) || !slices.Equal(got.machine, want.machine) {
		t.Fatal("the build after an aborted one differs from a build over resident storage")
	}
}

func TestEdgeOwnershipPartition(t *testing.T) {
	// Property: the multiset of local edges across machines equals the
	// graph's edge multiset. Validate() checks counts; here we check
	// identity via hashing.
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(100) + 10
		m := r.Intn(400) + 20
		es := make([]graph.Edge, m)
		for i := range es {
			es[i] = graph.Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
		}
		g := graph.FromEdges(n, es)
		machines := r.Intn(20) + 1
		lay, err := NewLayout(g, machines, Random{}, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if err := lay.Validate(); err != nil {
			t.Fatal(err)
		}
		var globalSum, localSum uint64
		g.Edges(func(e graph.Edge) bool {
			globalSum += uint64(e.Src)<<32 ^ uint64(e.Dst)*0x9e37
			return true
		})
		adj := g.NewAdjReader()
		var nbrs []graph.VertexID
		for v := 0; v < n; v++ {
			for _, m := range lay.Presences(graph.VertexID(v)) {
				nbrs = lay.LocalOutNeighbors(adj, graph.VertexID(v), int(m), nbrs[:0])
				for _, d := range nbrs {
					localSum += uint64(v)<<32 ^ uint64(d)*0x9e37
				}
			}
		}
		adj.Release()
		if globalSum != localSum {
			t.Fatal("edge multisets differ between graph and layout")
		}
	}
}

func TestCutStats(t *testing.T) {
	g := testGraph(t, 1000, 9)
	lay, err := NewLayout(g, 10, Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := lay.Stats()
	if s.Machines != 10 {
		t.Errorf("machines = %d", s.Machines)
	}
	if s.ReplicationFactor < 1 {
		t.Errorf("replication = %v", s.ReplicationFactor)
	}
	if s.EdgeImbalance < 1 {
		t.Errorf("edge imbalance = %v, must be >= 1", s.EdgeImbalance)
	}
	if s.MasterImbalance < 1 {
		t.Errorf("master imbalance = %v, must be >= 1", s.MasterImbalance)
	}
	// Random hashed placement should be well balanced.
	if s.EdgeImbalance > 1.5 {
		t.Errorf("random placement imbalance %v too high", s.EdgeImbalance)
	}
}

func TestMeterBasics(t *testing.T) {
	var m MachineMeter
	m.Send(TrafficSync, 100)
	m.Send(TrafficSignal, 50)
	m.Recv(TrafficGather, 30)
	if m.TotalSent() != 150 || m.TotalRecv() != 30 {
		t.Errorf("totals: sent %d recv %d", m.TotalSent(), m.TotalRecv())
	}
	var sum MachineMeter
	sum.Add(&m)
	sum.Add(&m)
	if sum.TotalSent() != 300 {
		t.Errorf("Add: %d", sum.TotalSent())
	}
	m.Reset()
	if m.TotalSent() != 0 {
		t.Error("Reset failed")
	}
}

func TestTrafficClassString(t *testing.T) {
	names := map[TrafficClass]string{
		TrafficGather: "gather", TrafficSync: "sync",
		TrafficSignal: "signal", TrafficControl: "control",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestCostModel(t *testing.T) {
	cm := CostModel{EdgeOpSeconds: 1e-9, VertexOpSeconds: 1e-8, BytesPerSecond: 1e6, BarrierSeconds: 1e-3}
	meters := make([]MachineMeter, 2)
	meters[0].EdgeOps = 1000
	meters[0].Send(TrafficSync, 1000) // 1ms at 1MB/s
	meters[1].VertexOps = 100
	t0 := cm.MachineSeconds(&meters[0])
	want0 := 1000*1e-9 + 1000/1e6
	if diff := t0 - want0; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("machine 0 seconds = %v want %v", t0, want0)
	}
	step := cm.SuperstepSeconds(meters)
	if step < want0+1e-3 || step > want0+1e-3+1e-9 {
		t.Errorf("superstep = %v", step)
	}
	cpu := cm.CPUSeconds(meters)
	wantCPU := 1000*1e-9 + 100*1e-8
	if diff := cpu - wantCPU; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("cpu = %v want %v", cpu, wantCPU)
	}
}

func TestZeroBandwidthMeansFreeNetwork(t *testing.T) {
	cm := CostModel{EdgeOpSeconds: 1e-9}
	var m MachineMeter
	m.Send(TrafficSync, 1<<30)
	if s := cm.MachineSeconds(&m); s != 0 {
		t.Errorf("zero-bandwidth model should ignore bytes, got %v", s)
	}
}

// benchLayout times a full NewLayout on the graph the repo benchmark
// serves (gen.TwitterLike, 50k vertices, 1.38M edges), so these numbers
// line up with cluster.layout_s in the bench/ ledger.
func benchLayout(b *testing.B, machines int, p Partitioner) {
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLayout(g, machines, p, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLayoutRandom(b *testing.B) { benchLayout(b, 16, Random{}) }

func BenchmarkLayoutHDRF(b *testing.B) { benchLayout(b, 4, HDRF{}) }

// TestLayoutAllocBound holds the memory side of the cold build. The
// constructor that filled the local CSRs in two passes over the global
// CSR, with a per-edge side array, allocated 6 249 137 B per layout on
// this graph; the per-machine build allocates 5 675 756. A layout that
// also built its in-CSRs up front allocated 5 675 699 B; one that left
// them to the first in-edge read allocated 3 832 512. A layout that
// holds only the ingress, per-machine views built on first use,
// allocated 1 200 192. One whose vertex passes ran over chunks on a
// worker pool allocated 1 213 096 at one worker and 1 227 769 at 64;
// the serial passes that replaced it, with one flat presence bitset,
// allocate 1 200 096. Bytes per op are fixed for a fixed graph, so the
// bound sits just above the last figure.
func TestLayoutAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	g := testGraph(t, 20000, 1)
	const bound = 1_250_000
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewLayout(g, 16, Random{}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("NewLayout(Random,16): %d B/op, %d allocs/op (bound %d B)", res.AllocedBytesPerOp(), res.AllocsPerOp(), bound)
	if got := res.AllocedBytesPerOp(); got >= bound {
		t.Errorf("NewLayout(Random,16) allocates %d B/op, bound %d", got, bound)
	}
}

func BenchmarkLayoutOblivious(b *testing.B) {
	g := testGraph(b, 20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewLayout(g, 16, Oblivious{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHDRFValidAndCompetitive(t *testing.T) {
	g := testGraph(t, 3000, 10)
	layH, err := NewLayout(g, 16, HDRF{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := layH.Validate(); err != nil {
		t.Fatal(err)
	}
	layR, err := NewLayout(g, 16, Random{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// HDRF's selling point: much lower replication than random hashing
	// on power-law graphs.
	if layH.ReplicationFactor() >= layR.ReplicationFactor() {
		t.Errorf("HDRF replication %v should beat random %v",
			layH.ReplicationFactor(), layR.ReplicationFactor())
	}
	// Load balance must stay reasonable (that's what lambda buys).
	if s := layH.Stats(); s.EdgeImbalance > 2.0 {
		t.Errorf("HDRF edge imbalance %v too high", s.EdgeImbalance)
	}
}

func TestHDRFByName(t *testing.T) {
	p, err := ByName("hdrf")
	if err != nil || p.Name() != "hdrf" {
		t.Fatalf("ByName(hdrf) = %v, %v", p, err)
	}
}

func TestHDRFDeterministic(t *testing.T) {
	g := testGraph(t, 500, 11)
	a := HDRF{}.Place(g, 8, 42)
	b := HDRF{}.Place(g, 8, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("HDRF placement not deterministic")
		}
	}
}

func TestLayoutBeyond64Machines(t *testing.T) {
	// Exercises the multi-word presence bitset path (machines > 64).
	g := testGraph(t, 1500, 12)
	for _, p := range []Partitioner{Random{}, Oblivious{}, HDRF{}} {
		lay, err := NewLayout(g, 100, p, 3)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := lay.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if rf := lay.ReplicationFactor(); rf < 1 || rf > 100 {
			t.Fatalf("%s: replication %v out of range", p.Name(), rf)
		}
	}
}

// strayPartitioner places every edge on machine 0 except one, which it
// puts on a machine the cluster does not have.
type strayPartitioner struct{ stray uint16 }

func (strayPartitioner) Name() string { return "stray" }

func (p strayPartitioner) Place(g *graph.Graph, machines int, seed uint64) []uint16 {
	out := make([]uint16, g.NumEdges())
	out[len(out)/2] = p.stray
	return out
}

func TestOutOfRangePlacementIsAnError(t *testing.T) {
	g := testGraph(t, 100, 14)
	for _, stray := range []uint16{4, 65, 9999} {
		_, err := NewLayout(g, 4, strayPartitioner{stray}, 1)
		if err == nil {
			t.Fatalf("placement on machine %d of 4 was accepted", stray)
		}
		for _, want := range []string{"stray", fmt.Sprint(stray)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}
	if _, err := NewLayout(g, 4, strayPartitioner{3}, 1); err != nil {
		t.Errorf("in-range placement rejected: %v", err)
	}
}

func TestMachineCountBounds(t *testing.T) {
	g := testGraph(t, 50, 13)
	if _, err := NewLayout(g, 0, Random{}, 1); err == nil {
		t.Error("0 machines should error")
	}
	if _, err := NewLayout(g, MaxMachines+1, Random{}, 1); err == nil {
		t.Error("too many machines should error")
	}
}

// TestPlacementReadsMatchInIndex holds the two reads of a machine's
// edges to each other: on both graphs the layout golden is made of,
// for all four partitioners at 1, 4, 16 and 70 machines, the out-edges
// the placement gives machine m (LocalOutNeighbors, counted by
// LocalOutDegrees) are, edge for edge, the in-index entries tagged m.
// No placement read builds the in-index.
func TestPlacementReadsMatchInIndex(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"powerlaw1500": testGraph(t, 1500, 21),
		"sparse300":    sparseGraph(),
	}
	type edge struct{ src, dst graph.VertexID }
	for name, g := range graphs {
		for _, p := range []Partitioner{Random{}, Oblivious{}, Grid{}, HDRF{}} {
			for _, machines := range []int{1, 4, 16, 70} {
				lay, err := NewLayout(g, machines, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				r := g.NewAdjReader()
				n := g.NumVertices()
				out := make([][]edge, machines)
				deg := make([]int, machines)
				var nbrs []graph.VertexID
				for v := 0; v < n; v++ {
					lay.LocalOutDegrees(graph.VertexID(v), deg)
					for _, m := range lay.Presences(graph.VertexID(v)) {
						nbrs = lay.LocalOutNeighbors(r, graph.VertexID(v), int(m), nbrs[:0])
						if len(nbrs) != deg[m] {
							t.Fatalf("%s/%s/%d: vertex %d on machine %d: %d local out-edges, degree %d", name, p.Name(), machines, v, m, len(nbrs), deg[m])
						}
						for _, d := range nbrs {
							out[m] = append(out[m], edge{graph.VertexID(v), d})
						}
					}
				}
				r.Release()
				if lay.in.Load() != nil {
					t.Fatalf("%s/%s/%d: a placement read built the in-index", name, p.Name(), machines)
				}
				in := make([][]edge, machines)
				for d := 0; d < n; d++ {
					src, machine := lay.InIndex().In(graph.VertexID(d))
					for k, s := range src {
						in[machine[k]] = append(in[machine[k]], edge{s, graph.VertexID(d)})
					}
				}
				cmp := func(a, b edge) int {
					if a.src != b.src {
						return int(a.src) - int(b.src)
					}
					return int(a.dst) - int(b.dst)
				}
				for m := 0; m < machines; m++ {
					slices.SortFunc(out[m], cmp)
					slices.SortFunc(in[m], cmp)
					if !slices.Equal(out[m], in[m]) {
						t.Fatalf("%s/%s/%d: machine %d owns %d out-edges by the placement, %d in-edges by the in-index, or other ones",
							name, p.Name(), machines, m, len(out[m]), len(in[m]))
					}
				}
				if err := lay.Validate(); err != nil {
					t.Fatalf("%s/%s/%d: %v", name, p.Name(), machines, err)
				}
			}
		}
	}
}
