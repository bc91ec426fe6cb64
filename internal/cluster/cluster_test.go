package cluster

import (
	"fmt"
	"slices"
	"strings"
	"sync"
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
	if owned := int64(len(lay.View(0).outAdj)); owned != g.NumEdges() {
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
	for m := 0; m < 12; m++ {
		if len(a.View(m).outAdj) != len(b.View(m).outAdj) {
			t.Fatal("edge placement differs for same seed")
		}
	}
}

func TestLocalViewConsistency(t *testing.T) {
	g := testGraph(t, 400, 8)
	lay, err := NewLayout(g, 6, Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every local out-edge must exist in the global graph.
	adj := g.NewAdjReader()
	for m := 0; m < 6; m++ {
		view := lay.View(m)
		for li, v := range view.Verts() {
			if got, ok := view.LocalIndex(v); !ok || got != int32(li) {
				t.Fatalf("local index mismatch on machine %d vertex %d", m, v)
			}
			for _, d := range view.OutNeighborsLocal(int32(li)) {
				found := false
				for _, gd := range adj.OutNeighbors(v) {
					if gd == d {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("machine %d has phantom edge %d->%d", m, v, d)
				}
			}
			if view.LocalOutDegree(int32(li)) != len(view.OutNeighborsLocal(int32(li))) {
				t.Fatal("LocalOutDegree mismatch")
			}
		}
	}
}

// TestInCSRsBuiltOnFirstUse: NewLayout builds no view, in-edges
// included, and the first readers, racing from several goroutines and
// starting on different machines, all see the lists a serial build of
// the same layout gives. Together the lists hold every in-edge of the
// graph once.
func TestInCSRsBuiltOnFirstUse(t *testing.T) {
	g := testGraph(t, 1500, 16)
	const machines, readers = 8, 8
	lay, err := NewLayout(g, machines, Random{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lay.viewsBuilt.Load() || lay.views != nil || lay.presLocal != nil {
		t.Fatal("NewLayout built the per-machine views")
	}
	ref, err := NewLayout(g, machines, Random{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref.View(0)

	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < machines; k++ {
				m := (r + k) % machines
				view, want := lay.View(m), ref.View(m)
				for li := int32(0); li < int32(view.NumPresent()); li++ {
					got := view.InNeighborsLocal(li)
					if !slices.Equal(got, want.InNeighborsLocal(li)) {
						t.Errorf("reader %d, machine %d, local vertex %d: in-list %v, serial build %v", r, m, li, got, want.InNeighborsLocal(li))
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	for v := 0; v < g.NumVertices(); v++ {
		sum := 0
		for _, m := range lay.Presences(graph.VertexID(v)) {
			li, _ := lay.View(int(m)).LocalIndex(graph.VertexID(v))
			sum += len(lay.View(int(m)).InNeighborsLocal(li))
		}
		if sum != g.InDegree(graph.VertexID(v)) {
			t.Fatalf("vertex %d: local in-degrees sum to %d, graph in-degree %d", v, sum, g.InDegree(graph.VertexID(v)))
		}
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
		for mm := 0; mm < machines; mm++ {
			view := lay.View(mm)
			for li, v := range view.Verts() {
				for _, d := range view.OutNeighborsLocal(int32(li)) {
					localSum += uint64(v)<<32 ^ uint64(d)*0x9e37
				}
			}
		}
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
// holds only the ingress, its views built on first View, allocates
// 1 200 192. Bytes per op are fixed for a fixed graph, so the bound
// sits between the last two figures.
func TestLayoutAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	g := testGraph(t, 20000, 1)
	const bound = 2_000_000
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

// TestLocalIndexMatchesVertsSearch is the property LocalIndex rests on
// now that no map backs it: on every machine, for every vertex of the
// graph — hosted there or not, isolated or not — it answers exactly
// what a search of the machine's ascending Verts() answers, with one
// presence word per vertex (<= 64 machines) and beyond.
func TestLocalIndexMatchesVertsSearch(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"powerlaw": testGraph(t, 700, 15),
		"sparse":   sparseGraph(),
	}
	for name, g := range graphs {
		for _, p := range []Partitioner{Random{}, Grid{}, HDRF{}} {
			for _, machines := range []int{1, 3, 64, 65, 130} {
				lay, err := NewLayout(g, machines, p, 5)
				if err != nil {
					t.Fatal(err)
				}
				for m := 0; m < machines; m++ {
					view := lay.View(m)
					at := map[uint32]int32{} // the brute-force inverse of Verts()
					for li, v := range view.Verts() {
						at[v] = int32(li)
					}
					for v := 0; v < g.NumVertices(); v++ {
						want, wantOK := at[uint32(v)]
						got, ok := view.LocalIndex(uint32(v))
						if ok != wantOK || (ok && got != want) {
							t.Fatalf("%s/%s/%d machines: LocalIndex(%d) on machine %d = %d,%v; Verts() says %d,%v",
								name, p.Name(), machines, v, m, got, ok, want, wantOK)
						}
					}
				}
			}
		}
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

// TestPlacementReadsMatchViews holds the reads a program without views
// makes to the views a gathering program reads: on both graphs the
// layout golden is made of, for all four partitioners at 1, 4, 16 and
// 70 machines, v's out-edges filtered by the placement for machine m,
// and the counting pass's degree, equal View(m)'s local out-list and
// out-degree for every (v, m) — empty for a machine that does not host
// v. None of those reads builds a view.
func TestPlacementReadsMatchViews(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"powerlaw1500": testGraph(t, 1500, 21),
		"sparse300":    sparseGraph(),
	}
	for name, g := range graphs {
		for _, p := range []Partitioner{Random{}, Oblivious{}, Grid{}, HDRF{}} {
			for _, machines := range []int{1, 4, 16, 70} {
				lay, err := NewLayout(g, machines, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				r := g.NewAdjReader()
				n := g.NumVertices()
				deg := make([][]int, n) // deg[v][m], machines not hosting v at -1
				nbrs := make([][][]graph.VertexID, n)
				for v := range nbrs {
					deg[v] = slices.Repeat([]int{-1}, machines)
					lay.LocalOutDegrees(graph.VertexID(v), deg[v])
					nbrs[v] = make([][]graph.VertexID, machines)
					for m := range nbrs[v] {
						nbrs[v][m] = lay.LocalOutNeighbors(r, graph.VertexID(v), m, nil)
					}
				}
				r.Release()
				if lay.viewsBuilt.Load() {
					t.Fatalf("%s/%s/%d: a placement read built the views", name, p.Name(), machines)
				}
				for v := 0; v < n; v++ {
					for m := 0; m < machines; m++ {
						view := lay.View(m)
						var want []graph.VertexID
						wantDeg := -1
						if li, ok := view.LocalIndex(graph.VertexID(v)); ok {
							want, wantDeg = view.OutNeighborsLocal(li), view.LocalOutDegree(li)
						}
						if !slices.Equal(nbrs[v][m], want) || deg[v][m] != wantDeg {
							t.Fatalf("%s/%s/%d: vertex %d on machine %d: placement reads %v (degree %d), view holds %v (degree %d)",
								name, p.Name(), machines, v, m, nbrs[v][m], deg[v][m], want, wantDeg)
						}
					}
				}
				if err := lay.Validate(); err != nil {
					t.Fatalf("%s/%s/%d: %v", name, p.Name(), machines, err)
				}
			}
		}
	}
}
