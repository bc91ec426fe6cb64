package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder(4).
		AddEdge(0, 1).AddEdge(0, 2).AddEdge(1, 3).AddEdge(2, 3).AddEdge(3, 0).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := diamond(t)
	if g.NumVertices() != 4 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 1 {
		t.Errorf("out degrees wrong: %d %d", g.OutDegree(0), g.OutDegree(3))
	}
	if g.InDegree(3) != 2 || g.InDegree(0) != 1 {
		t.Errorf("in degrees wrong: %d %d", g.InDegree(3), g.InDegree(0))
	}
	r := g.NewAdjReader()
	defer r.Release()
	out0 := append([]VertexID(nil), r.OutNeighbors(0)...)
	sort.Slice(out0, func(i, j int) bool { return out0[i] < out0[j] })
	if len(out0) != 2 || out0[0] != 1 || out0[1] != 2 {
		t.Errorf("OutNeighbors(0) = %v", out0)
	}
	in3 := append([]VertexID(nil), r.InNeighbors(3)...)
	sort.Slice(in3, func(i, j int) bool { return in3[i] < in3[j] })
	if len(in3) != 2 || in3[0] != 1 || in3[1] != 2 {
		t.Errorf("InNeighbors(3) = %v", in3)
	}
}

func TestEdgesIteration(t *testing.T) {
	g := diamond(t)
	count := 0
	g.Edges(func(e Edge) bool { count++; return true })
	if count != 5 {
		t.Errorf("Edges visited %d, want 5", count)
	}
	count = 0
	g.Edges(func(e Edge) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early stop visited %d, want 3", count)
	}
}

func TestValidate(t *testing.T) {
	if err := diamond(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDanglingSelfLoop(t *testing.T) {
	g, err := NewBuilder(3).AddEdge(0, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	for v := VertexID(0); v < 3; v++ {
		if g.OutDegree(v) == 0 {
			t.Errorf("vertex %d still dangling", v)
		}
	}
	if g.NewAdjReader().OutNeighbors(2)[0] != 2 {
		t.Error("dangling repair should add a self-loop")
	}
}

func TestDedup(t *testing.T) {
	g, err := NewBuilder(2).
		AddEdge(0, 1).AddEdge(0, 1).AddEdge(1, 0).AddEdge(0, 1).
		Dedup().Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d after dedup, want 2", g.NumEdges())
	}
}

func TestNoSelfLoops(t *testing.T) {
	g, err := NewBuilder(2).
		AddEdge(0, 0).AddEdge(0, 1).AddEdge(1, 0).
		NoSelfLoops().Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Error("empty graph should have no vertices/edges")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.NumVertices != 0 {
		t.Error("stats on empty graph")
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond(t)
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 5 {
		t.Errorf("stats basic: %+v", s)
	}
	if s.MinOutDeg != 1 || s.MaxOutDeg != 2 || s.MaxInDeg != 2 {
		t.Errorf("stats degrees: %+v", s)
	}
	if s.Dangling != 0 {
		t.Errorf("dangling = %d", s.Dangling)
	}
	if s.MeanDeg != 1.25 {
		t.Errorf("mean = %v", s.MeanDeg)
	}
}

func TestGiniRegularVsSkewed(t *testing.T) {
	// Ring: all degrees equal, Gini ~ 0.
	b := NewBuilder(100)
	for v := 0; v < 100; v++ {
		b.AddEdge(VertexID(v), VertexID((v+1)%100))
	}
	ring, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	gRing := ComputeStats(ring).GiniOut
	if gRing > 0.01 {
		t.Errorf("ring Gini = %v, want ~0", gRing)
	}
	// Star with hub self-loops elsewhere: very skewed.
	b2 := NewBuilder(100)
	for v := 1; v < 100; v++ {
		b2.AddEdge(0, VertexID(v))
	}
	star, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	gStar := ComputeStats(star).GiniOut
	if gStar < 0.4 {
		t.Errorf("star Gini = %v, want high", gStar)
	}
}

// Property: for random edge lists, the CSR encodes exactly the input
// multiset of edges and Validate passes.
func TestCSRRoundTripProperty(t *testing.T) {
	r := rng.New(2024)
	f := func(nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%50) + 1
		m := int(mRaw % 500)
		in := make([]Edge, m)
		for i := range in {
			in[i] = Edge{VertexID(r.Intn(n)), VertexID(r.Intn(n))}
		}
		g := FromEdges(n, in)
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		var out []Edge
		g.Edges(func(e Edge) bool { out = append(out, e); return true })
		if len(out) != len(in) {
			return false
		}
		key := func(e Edge) uint64 { return uint64(e.Src)<<32 | uint64(e.Dst) }
		cnt := map[uint64]int{}
		for _, e := range in {
			cnt[key(e)]++
		}
		for _, e := range out {
			cnt[key(e)]--
		}
		for _, c := range cnt {
			if c != 0 {
				return false
			}
		}
		// Degree sums must equal edge count in both directions.
		var od, id int64
		for v := 0; v < n; v++ {
			od += int64(g.OutDegree(VertexID(v)))
			id += int64(g.InDegree(VertexID(v)))
		}
		return od == int64(m) && id == int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: in/out adjacency are transposes of each other.
func TestTransposeProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(40) + 2
		m := r.Intn(300)
		es := make([]Edge, m)
		for i := range es {
			es[i] = Edge{VertexID(r.Intn(n)), VertexID(r.Intn(n))}
		}
		g := FromEdges(n, es)
		out, in := g.NewAdjReader(), g.NewAdjReader()
		for v := 0; v < n; v++ {
			for _, d := range out.OutNeighbors(VertexID(v)) {
				found := 0
				for _, s := range in.InNeighbors(d) {
					if s == VertexID(v) {
						found++
					}
				}
				if found == 0 {
					t.Fatalf("edge (%d,%d) missing from in-adjacency", v, d)
				}
			}
		}
	}
}

func BenchmarkBuild1M(b *testing.B) {
	r := rng.New(1)
	const n = 100000
	es := make([]Edge, 1000000)
	for i := range es {
		es[i] = Edge{VertexID(r.Intn(n)), VertexID(r.Intn(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(n, es)
	}
}
