package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestPowerLawBasic(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{N: 2000, MeanOutDeg: 10, DegExponent: 2.1, PrefExponent: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Errorf("n = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if s.Dangling != 0 {
		t.Errorf("dangling = %d, want 0", s.Dangling)
	}
	if s.MeanDeg < 5 || s.MeanDeg > 20 {
		t.Errorf("mean degree = %v, want ≈ 10", s.MeanDeg)
	}
	if s.MinOutDeg < 1 {
		t.Errorf("min out degree = %d", s.MinOutDeg)
	}
}

func TestPowerLawSkew(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{N: 5000, MeanOutDeg: 10, DegExponent: 2.0, PrefExponent: 1.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	// In-degree must be heavy-tailed: the most popular vertex should
	// receive far more than the mean.
	if float64(s.MaxInDeg) < 10*s.MeanDeg {
		t.Errorf("max in-degree %d not heavy-tailed (mean %v)", s.MaxInDeg, s.MeanDeg)
	}
	if s.GiniOut < 0.2 {
		t.Errorf("out-degree Gini = %v, want skewed", s.GiniOut)
	}
}

func TestPowerLawNoSelfLoopsNoDup(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{N: 500, MeanOutDeg: 8, DegExponent: 2.2, PrefExponent: 1.0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := g.NewAdjReader()
	for v := 0; v < g.NumVertices(); v++ {
		seen := map[uint32]bool{}
		for _, d := range r.OutNeighbors(uint32(v)) {
			if int(d) == v {
				t.Fatalf("self loop at %d", v)
			}
			if seen[d] {
				t.Fatalf("duplicate edge %d->%d", v, d)
			}
			seen[d] = true
		}
	}
}

// edgeSlice lists g's edges in source order.
func edgeSlice(g *graph.Graph) []graph.Edge {
	var es []graph.Edge
	g.Edges(func(e graph.Edge) bool { es = append(es, e); return true })
	return es
}

func TestPowerLawDeterministic(t *testing.T) {
	a, _ := PowerLaw(TwitterLike(1000, 42))
	b, _ := PowerLaw(TwitterLike(1000, 42))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different edge counts")
	}
	ea, eb := edgeSlice(a), edgeSlice(b)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	c, _ := PowerLaw(TwitterLike(1000, 43))
	if c.NumEdges() == a.NumEdges() {
		same := true
		ec := edgeSlice(c)
		for i := range ea {
			if ea[i] != ec[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestPowerLawErrors(t *testing.T) {
	if _, err := PowerLaw(PowerLawConfig{N: 1}); err == nil {
		t.Error("N=1 should error")
	}
	if _, err := PowerLaw(PowerLawConfig{N: 10, MeanOutDeg: 0.5, DegExponent: 2}); err == nil {
		t.Error("MeanOutDeg<1 should error")
	}
	if _, err := PowerLaw(PowerLawConfig{N: 10, MeanOutDeg: 2, DegExponent: 1.0}); err == nil {
		t.Error("DegExponent<=1 should error")
	}
}

func TestPresets(t *testing.T) {
	tw := TwitterLike(10000, 1)
	lj := LiveJournalLike(10000, 1)
	if tw.MeanOutDeg <= lj.MeanOutDeg {
		t.Error("twitter preset should be denser than livejournal")
	}
	g, err := PowerLaw(lj)
	if err != nil {
		t.Fatal(err)
	}
	if graph.ComputeStats(g).Dangling != 0 {
		t.Error("preset graph has dangling vertices")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(1000, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if s.Dangling != 0 {
		t.Errorf("dangling = %d", s.Dangling)
	}
	// 5000 requested + up to n self-loop repairs.
	if s.NumEdges < 5000 || s.NumEdges > 6000 {
		t.Errorf("edges = %d", s.NumEdges)
	}
	// ER should NOT be skewed.
	if s.GiniOut > 0.35 {
		t.Errorf("ER Gini = %v, too skewed", s.GiniOut)
	}
}

func TestRMAT(t *testing.T) {
	g, err := RMAT(DefaultRMAT(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Errorf("n = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if s.Dangling != 0 {
		t.Errorf("dangling = %d", s.Dangling)
	}
	// R-MAT concentrates edges on low-id vertices: skew expected.
	if s.GiniOut < 0.3 {
		t.Errorf("RMAT Gini = %v, want skewed", s.GiniOut)
	}
}

func TestRMATErrors(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0}); err == nil {
		t.Error("scale 0 should error")
	}
	if _, err := RMAT(RMATConfig{Scale: 5, EdgeFactor: 4, A: 0.5, B: 0.3, C: 0.3}); err == nil {
		t.Error("probabilities > 1 should error")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(10)
	if g.NumEdges() != 10 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	r := g.NewAdjReader()
	for v := 0; v < 10; v++ {
		if g.OutDegree(uint32(v)) != 1 || g.InDegree(uint32(v)) != 1 {
			t.Fatalf("cycle degree wrong at %d", v)
		}
		if r.OutNeighbors(uint32(v))[0] != uint32((v+1)%10) {
			t.Fatalf("cycle edge wrong at %d", v)
		}
	}
}

func TestStar(t *testing.T) {
	g := Star(11)
	if g.OutDegree(0) != 10 || g.InDegree(0) != 10 {
		t.Error("hub degrees wrong")
	}
	for v := 1; v < 11; v++ {
		if g.OutDegree(uint32(v)) != 1 {
			t.Fatalf("leaf %d out-degree %d", v, g.OutDegree(uint32(v)))
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.NumEdges() != 30 {
		t.Errorf("edges = %d, want 30", g.NumEdges())
	}
	for v := 0; v < 6; v++ {
		if g.OutDegree(uint32(v)) != 5 || g.InDegree(uint32(v)) != 5 {
			t.Fatal("complete graph degrees wrong")
		}
	}
}

func TestPowerLawDegreeTail(t *testing.T) {
	// The complementary CDF of out-degree should be convexly decaying:
	// count(deg >= 4x) << count(deg >= x) by much more than 1/4 (power
	// law), unlike an exponential tail. Loose sanity check.
	g, err := PowerLaw(PowerLawConfig{N: 20000, MeanOutDeg: 10, DegExponent: 2.0, PrefExponent: 1.0, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	count := func(thresh int) int {
		c := 0
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(uint32(v)) >= thresh {
				c++
			}
		}
		return c
	}
	c10, c40 := count(10), count(40)
	if c10 == 0 {
		t.Skip("degenerate sample")
	}
	ratio := float64(c40) / float64(c10)
	// For Zipf exponent 2 the CCDF ratio at 4x is ≈ 4^-1 = 0.25 before
	// scaling; just require a real tail exists and decays.
	if c40 == 0 {
		t.Errorf("no heavy tail: c40 = 0 (c10 = %d)", c10)
	}
	if ratio > 0.6 {
		t.Errorf("tail not decaying: ratio = %v", ratio)
	}
}
