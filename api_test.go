package repro_test

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro"
)

func TestEndToEndQuickstart(t *testing.T) {
	g, err := repro.TwitterLikeGraph(3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := repro.ExactPageRank(g, repro.PageRankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunFrogWild(g, repro.FrogWildConfig{
		Walkers:    g.NumVertices() / 3,
		Iterations: 4,
		PS:         0.7,
		Machines:   16,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := repro.NormalizedCapturedMass(exact.Rank, res.Estimate, 50)
	if acc < 0.8 {
		t.Errorf("quickstart accuracy %.3f too low", acc)
	}
	top := repro.TopK(res.Estimate, 10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Score > top[i-1].Score {
			t.Fatal("TopK not sorted")
		}
	}
}

func TestBaselinesRunThroughFacade(t *testing.T) {
	g, err := repro.LiveJournalLikeGraph(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunGraphLabPR(g, repro.GraphLabPRConfig{Machines: 4, Iterations: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunSparsifiedPR(g, repro.SparsifyConfig{Keep: 0.7, Iterations: 2, Machines: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunMonteCarloPR(g, repro.MonteCarloConfig{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	counts, err := repro.SerialFrogWalk(g, 1000, 4, repro.DefaultTeleport, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Errorf("serial walk total = %d", total)
	}
}

func TestGraphRoundTripThroughFacade(t *testing.T) {
	g, err := repro.ErdosRenyiGraph(500, 2500, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := repro.SaveGraph(txt, g); err != nil {
		t.Fatal(err)
	}
	g2, err := repro.LoadGraph(txt)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("text round trip changed edge count")
	}
	csr := filepath.Join(dir, "g.csr.gz")
	if err := repro.SaveGraphCSR(csr, g); err != nil {
		t.Fatal(err)
	}
	g3, err := repro.LoadGraph(csr)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g.NumEdges() {
		t.Error("csr.gz round trip changed edge count")
	}
}

func TestServingThroughFacade(t *testing.T) {
	g, err := repro.TwitterLikeGraph(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := repro.NewSnapshot(g, repro.SnapshotConfig{
		Engine:   repro.ServeEngineFrogWild,
		Machines: 4,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance contract: a snapshot's answer is bit-identical to
	// TopK over its own scores.
	for _, k := range []int{1, 20, 150} {
		if !reflect.DeepEqual(snap.TopK(k), repro.TopK(snap.Ranks, k)) {
			t.Fatalf("snapshot TopK(%d) differs from repro.TopK", k)
		}
	}
	if snap.Engine != repro.ServeEngineFrogWild || snap.Stats.NumVertices != g.NumVertices() {
		t.Errorf("snapshot provenance: %+v", snap.Engine)
	}

	// Serve: starts, builds, answers, and shuts down cleanly on cancel.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- repro.Serve(ctx, "127.0.0.1:0", g, repro.ServeConfig{
			Build: repro.SnapshotConfig{Engine: repro.ServeEngineFrogWild, Machines: 4, Seed: 9},
		})
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve should shut down cleanly, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

func TestLayoutSharingThroughFacade(t *testing.T) {
	g, err := repro.RMATGraph(10, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.PartitionerByName("oblivious")
	if err != nil {
		t.Fatal(err)
	}
	lay, err := repro.NewLayout(g, 8, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := repro.RunFrogWild(g, repro.FrogWildConfig{Walkers: 500, Iterations: 3, Layout: lay, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := repro.RunGraphLabPR(g, repro.GraphLabPRConfig{Layout: lay, Iterations: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Layout != lay || b.Layout != lay {
		t.Error("layout sharing broken")
	}
}

func TestTheoryThroughFacade(t *testing.T) {
	eps, err := repro.ErrorBound(repro.ErrorBoundParams{
		PT: 0.15, T: 5, K: 100, Delta: 0.1, N: 100000, PS: 0.7,
		Intersect: repro.IntersectionBound(1000000, 5, 1e-3, 0.15),
	})
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 || math.IsNaN(eps) {
		t.Errorf("epsilon = %v", eps)
	}
}

func TestScatterModesExposed(t *testing.T) {
	g, err := repro.TwitterLikeGraph(1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []repro.ScatterMode{repro.ScatterSplit, repro.ScatterBinomial} {
		if _, err := repro.RunFrogWild(g, repro.FrogWildConfig{
			Walkers: 2000, Iterations: 3, PS: 0.5, Machines: 4, Seed: 3, Mode: mode,
		}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestGraphStatsThroughFacade(t *testing.T) {
	g, err := repro.TwitterLikeGraph(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := repro.ComputeGraphStats(g)
	if s.NumVertices != 2000 || s.Dangling != 0 {
		t.Errorf("stats: %+v", s)
	}
}

func TestPersonalizedFrogWildThroughFacade(t *testing.T) {
	g, err := repro.LiveJournalLikeGraph(1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	sources := []repro.VertexID{3, 14}
	exact, err := repro.ExactPersonalizedPageRank(g, sources, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunPersonalizedFrogWild(g, repro.PPRConfig{
		Config:  repro.FrogWildConfig{Walkers: 20000, Iterations: 8, PS: 0.7, Machines: 8, Seed: 2},
		Sources: sources,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := repro.NormalizedCapturedMass(exact, res.Estimate, 20); acc < 0.75 {
		t.Errorf("PPR facade accuracy %.3f", acc)
	}
}

func TestMetricsThroughFacade(t *testing.T) {
	a := []float64{0.5, 0.3, 0.2}
	b := []float64{0.2, 0.3, 0.5}
	if repro.L1Distance(a, b) != 0.6 {
		t.Error("L1 wrong")
	}
	if repro.ChiSquaredContrast(a, a) != 0 {
		t.Error("chi2 self should be 0")
	}
	if repro.KendallTauTopK(a, a, 3) != 1 {
		t.Error("tau self should be 1")
	}
	if repro.PrecisionAtK(a, a, 2) != 1 {
		t.Error("precision self should be 1")
	}
}

func TestErasureModesThroughFacade(t *testing.T) {
	g, err := repro.TwitterLikeGraph(800, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunFrogWild(g, repro.FrogWildConfig{
		Walkers: 5000, Iterations: 4, PS: 0.1, Machines: 16, Seed: 4,
		ErasureModel: repro.ErasureIndependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrogs+res.LostFrogs != 5000 {
		t.Error("erasure accounting broken through facade")
	}
}

func TestVisitsEstimatorThroughFacade(t *testing.T) {
	g, err := repro.TwitterLikeGraph(800, 15)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunFrogWild(g, repro.FrogWildConfig{
		Walkers: 500, Iterations: 4, PS: 1, Machines: 4, Seed: 1,
		Estimator: repro.EstimatorVisits,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrogs < 500 {
		t.Errorf("visit tally %d below frog count", res.TotalFrogs)
	}
}
