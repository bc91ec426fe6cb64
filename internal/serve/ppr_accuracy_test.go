package serve

// The first slice of /v1/ppr's accuracy contract: the served
// complete-path tally is an unbiased estimate of the exact personalized
// PageRank vector, and the served default walk count answers the
// benchmark's probes no worse than the 2000-walk endpoint tally it
// replaced.

import (
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/rng"
	"repro/internal/topk"
	"repro/internal/walk"
)

// raceEnabled is set by race_enabled_test.go under the race detector,
// whose sync.Pool drops items at random and so allocates where a run
// without it does not.
var raceEnabled bool

// danglingPowerLaw is a power-law graph with the out-edges of every
// seventh vertex removed, so walks restart at their source.
func danglingPowerLaw(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := powerLaw(t, gen.PowerLawConfig{N: n, MeanOutDeg: 8, DegExponent: 2.1, Seed: 5})
	var kept []graph.Edge
	g.Edges(func(e graph.Edge) bool {
		if e.Src%7 != 3 {
			kept = append(kept, e)
		}
		return true
	})
	return graph.FromEdges(n, kept)
}

// TestPPRTallyUnbiased: the mean of the full served tally (every visited
// vertex, before the top-k cut) over 64 epochs approaches the exact
// personalized PageRank vector — one source and four, within the
// default budget and truncated by a smaller one (1500 cuts only the
// four-source set), on a resident and a paged graph whose walks restart
// at their sources from dangling vertices. A source set's vector is the
// uniform mixture of its sources' ExactPPR vectors (each walk restarts
// at its own source). The L1 distances at 64 epochs read 0.026 for one
// source (25 600 walks) and 0.015 for four (96 000–102 400 walks); a
// tally that misses the landing of a restart reads 0.15 and 0.30.
func TestPPRTallyUnbiased(t *testing.T) {
	const epochs = 64
	g := danglingPowerLaw(t, 5000)
	graphs, base := pagedLayouts(t, g, BuildConfig{Engine: EngineExact, Seed: 11, MaxK: 50}, map[string]float64{"paged": 0})
	cases := []struct {
		name      string
		sources   []graph.VertexID
		budget    int
		truncated bool
		maxL1     float64
	}{
		{"one source", []graph.VertexID{12}, 0, false, 0.04},
		{"four sources", []graph.VertexID{3, 12, 700, 4242}, 0, false, 0.03},
		{"four sources, budget 1500", []graph.VertexID{3, 12, 700, 4242}, 1500, true, 0.03},
	}
	for _, tc := range cases {
		exact := make([]float64, g.NumVertices()) // the set's PPR: the uniform mixture of its sources'
		for _, src := range tc.sources {
			ppr, err := frogwild.ExactPPR(g, []graph.VertexID{src}, 0, 1e-12, 0)
			if err != nil {
				t.Fatal(err)
			}
			for v, p := range ppr {
				exact[v] += p / float64(len(tc.sources))
			}
		}
		plan, _, _, err := planPPR(tc.sources, 1, g.NumVertices(), PPROptions{WalkBudget: tc.budget}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if plan.truncated != tc.truncated {
			t.Fatalf("%s: truncated %v, want %v", tc.name, plan.truncated, tc.truncated)
		}
		var resident []float64
		for _, layout := range []string{"plain", "paged"} {
			mean := make([]float64, g.NumVertices())
			for epoch := uint64(1); epoch <= epochs; epoch++ {
				snap := *base
				snap.Graph, snap.Epoch = graphs[layout], epoch
				entries, _, err := pprWalk(&snap, plan)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					mean[e.Vertex] += e.Score / epochs
				}
			}
			l1 := topk.L1Distance(mean, exact)
			t.Logf("%s on %s graph: L1 %.4f over %d walks", tc.name, layout, l1, epochs*plan.walks())
			if l1 > tc.maxL1 {
				t.Errorf("%s on %s graph: mean of %d epochs is %.4f from the exact vector in L1, want ≤ %.2f", tc.name, layout, epochs, l1, tc.maxL1)
			}
			if resident == nil {
				resident = mean
			} else if !slices.Equal(mean, resident) {
				t.Errorf("%s: the paged tallies differ from the resident ones", tc.name)
			}
		}
	}
}

// benchShaped is the benchmark's input: its graph (gen.TwitterLike(50000,
// 1), degree-relabeled), its 16 Zipf probe sources and their exact
// personalized PageRank vectors. It is built once per test binary.
type benchShaped struct {
	g      *graph.Graph
	probes []graph.VertexID
	exact  [][]float64
}

var benchShapedOnce = sync.OnceValues(func() (*benchShaped, error) {
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 1))
	if err != nil {
		return nil, err
	}
	rg, err := gstore.Relabel(g)
	if err != nil {
		return nil, err
	}
	fx := &benchShaped{g: rg, probes: probeSources(rg.NumVertices(), 16)}
	for _, src := range fx.probes {
		exact, err := frogwild.ExactPPR(rg, []graph.VertexID{src}, 0, 1e-10, 0)
		if err != nil {
			return nil, err
		}
		fx.exact = append(fx.exact, exact)
	}
	return fx, nil
})

// probeSources draws n distinct sources from the Zipf law of the
// benchmark's traffic, the way bench/ draws its accuracy probes.
func probeSources(n, count int) []graph.VertexID {
	h := fnv.New64a()
	h.Write([]byte("probes"))
	z := rand.NewZipf(rand.New(rand.NewPCG(1, h.Sum64())), 1.1, 1, uint64(n-1))
	var out []graph.VertexID
	for len(out) < count {
		if v := graph.VertexID(z.Uint64()); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// endpointEstimate is the estimator /v1/ppr served before the
// complete-path tally, kept as a reference only: 2000 walks of the
// served streams, each tallied where it ends, counted densely and scored
// with its share of the walks.
func endpointEstimate(snap *Snapshot, src graph.VertexID) []float64 {
	const walks = 2000
	s := walk.Get()
	defer s.Put()
	for w := range walks {
		stream := rng.DeriveValue(snap.Seed, pprPurpose, snap.Epoch, uint64(src), uint64(w))
		s.Add(stream, src, pprLengths.Draw(&stream))
	}
	r := snap.Graph.NewAdjReader()
	defer r.Release()
	s.Run(r, true, false)
	counts := make([]int, snap.Graph.NumVertices())
	for i := range s.Walkers {
		counts[s.Walkers[i].Cur]++
	}
	est := make([]float64, len(counts))
	for v, c := range counts {
		est[v] = float64(c) / walks
	}
	return est
}

// TestPPRDefaultWalksNoWorseThanEndpoints guards the served walk count:
// on the benchmark's graph and probes, over 8 epochs, the served default
// (400 walks, every position tallied) answers top-100 lists at least as
// good as 2000 walks tallied at their endpoints, on mean normalized
// captured mass@100, Kendall-τ@20 and precision@20. Epoch 1 is what the
// benchmark's accuracy_mass100 reads on ppr_resident and ppr_paged.
func TestPPRDefaultWalksNoWorseThanEndpoints(t *testing.T) {
	fx, err := benchShapedOnce()
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 8
	type scores struct{ mass, tau, prec, epoch1 float64 }
	var served, endpoints scores
	add := func(sc *scores, epoch uint64, exact, est []float64) {
		top := make([]float64, len(est)) // what a top-100 response carries
		for _, e := range topk.Top(est, 100) {
			top[e.Vertex] = e.Score
		}
		mass := topk.NormalizedCapturedMass(exact, top, 100)
		sc.mass += mass
		sc.tau += topk.KendallTauTopK(exact, top, 20)
		sc.prec += topk.PrecisionAtK(exact, top, 20)
		if epoch == 1 {
			sc.epoch1 += mass
		}
	}
	for epoch := uint64(1); epoch <= epochs; epoch++ {
		snap := &Snapshot{Graph: fx.g, Seed: 1, Epoch: epoch}
		for i, src := range fx.probes {
			entries, truncated, err := PPRTopK(snap, []graph.VertexID{src}, 100, PPROptions{})
			if err != nil || truncated {
				t.Fatalf("source %d: truncated %v, err %v", src, truncated, err)
			}
			est := make([]float64, fx.g.NumVertices())
			for _, e := range entries {
				est[e.Vertex] = e.Score
			}
			add(&served, epoch, fx.exact[i], est)
			add(&endpoints, epoch, fx.exact[i], endpointEstimate(snap, src))
		}
	}
	n, first := float64(epochs*len(fx.probes)), float64(len(fx.probes))
	for _, row := range []struct {
		name              string
		served, endpoints float64
	}{
		{"mass@100", served.mass / n, endpoints.mass / n},
		{"Kendall-τ@20", served.tau / n, endpoints.tau / n},
		{"precision@20", served.prec / n, endpoints.prec / n},
		{"mass@100, epoch 1", served.epoch1 / first, endpoints.epoch1 / first},
	} {
		t.Logf("%-18s served %.6f, endpoint@2000 %.6f", row.name, row.served, row.endpoints)
		if row.served < row.endpoints {
			t.Errorf("%s: the served default reads %.6f, below endpoint@2000's %.6f", row.name, row.served, row.endpoints)
		}
	}
}

// TestPPRTopKAllocs bounds a computed PPR answer's allocations: the
// entries and the adjacency reader. The walker slab, the visit table and
// the cut all reuse pooled or caller memory.
func TestPPRTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	_, snap := pprServer(t, PPROptions{})
	sources := []graph.VertexID{7}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := PPRTopK(snap, sources, 100, PPROptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("PPRTopK allocates %.0f times per call, want ≤ 2", allocs)
	}
}
