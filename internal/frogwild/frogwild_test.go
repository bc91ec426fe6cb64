package frogwild

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func powerLaw(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: n, MeanOutDeg: 8, DegExponent: 2.0, PrefExponent: 1.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFrogConservationSplitMode(t *testing.T) {
	g := powerLaw(t, 500, 1)
	for _, machines := range []int{1, 4, 16} {
		for _, ps := range []float64{1, 0.4, 0.1} {
			res, err := Run(g, Config{Walkers: 5000, Iterations: 4, PS: ps, Machines: machines, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalFrogs != 5000 {
				t.Errorf("machines=%d ps=%v: %d frogs settled, want 5000 (conservation)",
					machines, ps, res.TotalFrogs)
			}
			var sum float64
			for _, p := range res.Estimate {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("estimate sums to %v", sum)
			}
		}
	}
}

func TestBinomialModeApproxConservation(t *testing.T) {
	g := powerLaw(t, 500, 2)
	res, err := Run(g, Config{Walkers: 20000, Iterations: 4, PS: 0.7, Machines: 8, Seed: 3, Mode: ScatterBinomial})
	if err != nil {
		t.Fatal(err)
	}
	// Binomial scatter conserves only in expectation; the realized
	// total should still be within a few percent for 20k walkers.
	ratio := float64(res.TotalFrogs) / 20000
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("binomial-mode total %d wildly off 20000", res.TotalFrogs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := powerLaw(t, 300, 3)
	lay, err := cluster.NewLayout(g, 6, cluster.Random{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(g, Config{Walkers: 3000, Iterations: 4, PS: 0.4, Layout: lay, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Config{Walkers: 3000, Iterations: 4, PS: 0.4, Layout: lay, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Counts {
		if a.Counts[v] != b.Counts[v] {
			t.Fatalf("counts diverged at vertex %d: %d vs %d", v, a.Counts[v], b.Counts[v])
		}
	}
	c, err := Run(g, Config{Walkers: 3000, Iterations: 4, PS: 0.4, Layout: lay, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for v := range a.Counts {
		if a.Counts[v] != c.Counts[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tallies")
	}
}

func TestSerialWalkConserves(t *testing.T) {
	g := powerLaw(t, 200, 4)
	counts, err := SerialWalk(g, 7777, 5, 0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 7777 {
		t.Errorf("serial walk settled %d frogs, want 7777", total)
	}
}

// TestSerialWalkParallelBitIdentical: SerialWalk shards its walkers
// over GOMAXPROCS goroutines, and every GOMAXPROCS gives the
// one-goroutine tally.
func TestSerialWalkParallelBitIdentical(t *testing.T) {
	g := powerLaw(t, 500, 4)
	const walkers = 9999
	walk := func(procs int) ([]int64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return SerialWalk(g, walkers, 6, 0.15, 7)
	}
	ref, err := walk(1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range ref {
		total += c
	}
	if total != walkers {
		t.Errorf("walk settled %d frogs, want %d", total, walkers)
	}
	for _, procs := range []int{2, 4, 7} {
		got, err := walk(procs)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("GOMAXPROCS=%d: counts[%d] = %d != one goroutine's %d (not bit-identical)",
					procs, v, got[v], ref[v])
			}
		}
	}
}

// TestSerialWalkIsParallelWithOneWorker pins SerialWalk at the
// process's own GOMAXPROCS to its one-goroutine run on a larger walk
// than TestSerialWalkParallelBitIdentical. That the process is the
// right one is the walk kernel's law test (internal/walk, χ² against
// Process 15).
func TestSerialWalkIsParallelWithOneWorker(t *testing.T) {
	g := powerLaw(t, 400, 6)
	par, err := SerialWalk(g, 60000, 8, 0.15, 23)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := func() ([]int64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return SerialWalk(g, 60000, 8, 0.15, 23)
	}()
	if err != nil {
		t.Fatal(err)
	}
	for v := range serial {
		if serial[v] != par[v] {
			t.Fatalf("counts[%d]: one goroutine %d != GOMAXPROCS=%d %d",
				v, serial[v], runtime.GOMAXPROCS(0), par[v])
		}
	}
}

// TestMatchesSerialReference cross-validates the distributed engine
// against the serial random-walk process: with ps=1 both sample the
// same truncated-geometric walk distribution, so their estimates must
// capture similar top-k mass and be close in L1 on a fixed graph.
func TestMatchesSerialReference(t *testing.T) {
	g := powerLaw(t, 400, 5)
	const walkers = 60000
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Run(g, Config{Walkers: walkers, Iterations: 8, PS: 1, Machines: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	serialCounts, err := SerialWalk(g, walkers, 8, 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	serialEst := Estimate(serialCounts, walkers)

	mDist := topk.NormalizedCapturedMass(exact.Rank, dist.Estimate, 50)
	mSerial := topk.NormalizedCapturedMass(exact.Rank, serialEst, 50)
	if math.Abs(mDist-mSerial) > 0.05 {
		t.Errorf("distributed (%.3f) and serial (%.3f) captured mass differ", mDist, mSerial)
	}
	var l1 float64
	for v := range dist.Estimate {
		l1 += math.Abs(dist.Estimate[v] - serialEst[v])
	}
	// Two independent samples of the same distribution with 60k draws
	// over ~400 effective states: expected L1 sampling noise is small.
	if l1 > 0.15 {
		t.Errorf("L1 between distributed and serial estimates = %v", l1)
	}
}

// TestCapturesTopKMass is the headline behaviour: FrogWild's estimator
// finds the heavy PageRank vertices.
func TestCapturesTopKMass(t *testing.T) {
	g := powerLaw(t, 2000, 6)
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []float64{1, 0.7, 0.4} {
		res, err := Run(g, Config{Walkers: 40000, Iterations: 5, PS: ps, Machines: 16, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		acc := topk.NormalizedCapturedMass(exact.Rank, res.Estimate, 100)
		if acc < 0.85 {
			t.Errorf("ps=%v captured %.3f of top-100 mass, want ≥ 0.85", ps, acc)
		}
	}
}

func TestMoreWalkersMoreAccuracy(t *testing.T) {
	g := powerLaw(t, 1500, 7)
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	few, err := Run(g, Config{Walkers: 500, Iterations: 5, PS: 1, Layout: lay, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(g, Config{Walkers: 100000, Iterations: 5, PS: 1, Layout: lay, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	accFew := topk.NormalizedCapturedMass(exact.Rank, few.Estimate, 100)
	accMany := topk.NormalizedCapturedMass(exact.Rank, many.Estimate, 100)
	if accMany <= accFew {
		t.Errorf("100k walkers (%.3f) should beat 500 walkers (%.3f)", accMany, accFew)
	}
	if accMany < 0.95 {
		t.Errorf("100k walkers capture %.3f, want ≥ 0.95", accMany)
	}
}

func TestPSReducesNetworkKeepsAccuracy(t *testing.T) {
	g := powerLaw(t, 2000, 8)
	lay, err := cluster.NewLayout(g, 16, cluster.Random{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(g, Config{Walkers: 30000, Iterations: 4, PS: 1, Layout: lay, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tenth, err := Run(g, Config{Walkers: 30000, Iterations: 4, PS: 0.1, Layout: lay, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tenth.Stats.Net.ClassBytes(cluster.TrafficSync) >= full.Stats.Net.ClassBytes(cluster.TrafficSync) {
		t.Error("ps=0.1 should reduce sync traffic")
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	accFull := topk.NormalizedCapturedMass(exact.Rank, full.Estimate, 100)
	accTenth := topk.NormalizedCapturedMass(exact.Rank, tenth.Estimate, 100)
	// The paper's Fig 2: ps=0.1 degrades accuracy only mildly.
	if accTenth < accFull-0.15 {
		t.Errorf("ps=0.1 accuracy %.3f vs ps=1 %.3f: degradation too large", accTenth, accFull)
	}
}

func TestUniformGraphGivesUniformEstimate(t *testing.T) {
	// On the complete graph the invariant distribution is uniform; no
	// vertex should hoard frogs.
	g := gen.Complete(30)
	res, err := Run(g, Config{Walkers: 60000, Iterations: 6, PS: 1, Machines: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 30
	for v, p := range res.Estimate {
		if math.Abs(p-want) > 0.01 {
			t.Errorf("vertex %d estimate %v, want ≈ %v", v, p, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := gen.Cycle(4)
	cases := []Config{
		{Walkers: 0, Iterations: 3},
		{Walkers: 100, Iterations: 0},
		{Walkers: 100, Iterations: 3, PS: 1.5},
		{Walkers: 100, Iterations: 3, PS: -1},
		{Walkers: 100, Iterations: 3, Teleport: 1.5},
	}
	for i, cfg := range cases {
		if _, err := Run(g, cfg); err == nil {
			t.Errorf("case %d should error: %+v", i, cfg)
		}
	}
	if _, err := Run(nil, Config{Walkers: 1, Iterations: 1}); err == nil {
		t.Error("nil graph should error")
	}
}

func TestDanglingRejected(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := Run(g, Config{Walkers: 10, Iterations: 2}); err == nil {
		t.Error("dangling graph must be rejected")
	}
}

func TestEstimateEdgeCases(t *testing.T) {
	est := Estimate([]int64{1, 2, 3}, 0)
	for _, p := range est {
		if p != 0 {
			t.Error("zero total should give zero estimate")
		}
	}
	est = Estimate([]int64{1, 3}, 4)
	if est[0] != 0.25 || est[1] != 0.75 {
		t.Errorf("estimate = %v", est)
	}
}

func TestScatterModeString(t *testing.T) {
	if ScatterSplit.String() != "split" || ScatterBinomial.String() != "binomial" {
		t.Error("mode strings wrong")
	}
}

func TestIndependentErasuresLoseFrogsAtLowPS(t *testing.T) {
	// Example 9 (independent erasures) strands frogs whose vertex has
	// no synchronized replica with local out-edges; Example 10 never
	// does. At ps=0.1 on many machines stranding is common.
	g := powerLaw(t, 400, 31)
	lay, err := cluster.NewLayout(g, 16, cluster.Random{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	indep, err := Run(g, Config{
		Walkers: 20000, Iterations: 4, PS: 0.1, Layout: lay, Seed: 8,
		ErasureModel: ErasureIndependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if indep.LostFrogs == 0 {
		t.Error("independent erasures at ps=0.1 should strand some frogs")
	}
	if indep.TotalFrogs+indep.LostFrogs != 20000 {
		t.Errorf("accounting broken: settled %d + lost %d != 20000",
			indep.TotalFrogs, indep.LostFrogs)
	}
	atLeastOne, err := Run(g, Config{
		Walkers: 20000, Iterations: 4, PS: 0.1, Layout: lay, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if atLeastOne.LostFrogs != 0 || atLeastOne.TotalFrogs != 20000 {
		t.Errorf("at-least-one erasure lost frogs: settled %d lost %d",
			atLeastOne.TotalFrogs, atLeastOne.LostFrogs)
	}
}

func TestErasureStrings(t *testing.T) {
	if ErasureAtLeastOne.String() != "at-least-one" || ErasureIndependent.String() != "independent" {
		t.Error("erasure strings wrong")
	}
}

func TestVisitsEstimatorMoreEfficient(t *testing.T) {
	// With few frogs, counting every visit (≈1/pT samples per frog)
	// should capture at least as much top-k mass as endpoint counting,
	// at identical network cost.
	g := powerLaw(t, 2000, 41)
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const walkers, iters, trials = 400, 8, 5
	var endpointAcc, visitsAcc float64
	for trial := 0; trial < trials; trial++ {
		seed := uint64(500 + trial)
		ep, err := Run(g, Config{Walkers: walkers, Iterations: iters, PS: 1, Layout: lay, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		vi, err := Run(g, Config{Walkers: walkers, Iterations: iters, PS: 1, Layout: lay, Seed: seed,
			Estimator: EstimatorVisits})
		if err != nil {
			t.Fatal(err)
		}
		endpointAcc += topk.NormalizedCapturedMass(exact.Rank, ep.Estimate, 50)
		visitsAcc += topk.NormalizedCapturedMass(exact.Rank, vi.Estimate, 50)
		if ep.Stats.Net.TotalBytes != vi.Stats.Net.TotalBytes {
			t.Errorf("estimator changed network bytes: %d vs %d",
				ep.Stats.Net.TotalBytes, vi.Stats.Net.TotalBytes)
		}
	}
	endpointAcc /= trials
	visitsAcc /= trials
	if visitsAcc < endpointAcc-0.02 {
		t.Errorf("visits estimator (%.3f) should not trail endpoint (%.3f)", visitsAcc, endpointAcc)
	}
	t.Logf("endpoint %.3f vs visits %.3f with %d frogs", endpointAcc, visitsAcc, walkers)
}

func TestVisitsEstimatorTallySemantics(t *testing.T) {
	// Total visits = Σ over frogs of (hops survived + 1) ≥ N, and each
	// frog contributes at most Iterations+1 visits.
	g := powerLaw(t, 300, 42)
	const walkers, iters = 2000, 4
	res, err := Run(g, Config{Walkers: walkers, Iterations: iters, PS: 1, Machines: 4, Seed: 5,
		Estimator: EstimatorVisits})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrogs < walkers {
		t.Errorf("visit total %d below frog count %d", res.TotalFrogs, walkers)
	}
	if res.TotalFrogs > int64(walkers)*(iters+1) {
		t.Errorf("visit total %d exceeds max possible %d", res.TotalFrogs, walkers*(iters+1))
	}
	// Expected visits per frog ≈ Σ_{h=0..t} (1-pT)^h ≈ 4.0 for t=4.
	mean := float64(res.TotalFrogs) / walkers
	if mean < 3.0 || mean > 4.5 {
		t.Errorf("mean visits per frog %.2f, want ≈ 3.9", mean)
	}
}

// runSharedLayout returns a benchmark of the serving build's FrogWild
// run (n/6 walkers, 4 iterations, ps 0.7, 16 machines) on a 20k-vertex
// TwitterLike graph whose layout is built once, outside the timed loop:
// what the engine costs, without the layout.
func runSharedLayout(tb testing.TB) func(*testing.B) {
	g, err := gen.PowerLaw(gen.TwitterLike(20000, 1))
	if err != nil {
		tb.Fatal(err)
	}
	lay, err := cluster.NewLayout(g, 16, cluster.Random{}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Walkers: g.NumVertices() / 6, Iterations: 4, PS: 0.7, Layout: lay, Seed: 1}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRunSharedLayout(b *testing.B) {
	run := runSharedLayout(b)
	b.ResetTimer()
	run(b)
}

// TestEngineAllocBound holds the engine's allocations per run. An engine
// that built a Context, a stream and planSync's lists for every applied
// vertex, and a Context for every scatter item, made 67 337 allocations
// per run here; one that kept them per chunk made about 17 900 (18 424
// once it built a map per scatter chunk and a slice of scatter items).
// One that stores no delivery for a replica with no frogs, keeps the
// Context, stream and planSync's lists per pool worker and stages
// deliveries and messages in per-worker buffers makes 6 233 (6 641 at
// GOMAXPROCS 64, with four workers per machine). One that runs each
// machine's phase serially, staging nothing, with FrogWild's split
// buffer kept per machine, makes 2 676 (2 692 at GOMAXPROCS 2).
func TestEngineAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	const bound = 3_500
	res := testing.Benchmark(runSharedLayout(t))
	t.Logf("%d allocs/op, %d B/op (bound %d allocs)", res.AllocsPerOp(), res.AllocedBytesPerOp(), bound)
	if got := res.AllocsPerOp(); got >= bound {
		t.Errorf("frogwild.Run on a shared layout makes %d allocations per run, bound %d", got, bound)
	}
}

func TestEstimatorString(t *testing.T) {
	if EstimatorEndpoint.String() != "endpoint" || EstimatorVisits.String() != "visits" {
		t.Error("estimator strings wrong")
	}
}

func TestScatterModesRun(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(1000, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ScatterMode{ScatterSplit, ScatterBinomial} {
		if _, err := Run(g, Config{
			Walkers: 2000, Iterations: 3, PS: 0.5, Machines: 4, Seed: 3, Mode: mode,
		}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestIndependentErasureAccounting(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(800, 13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{
		Walkers: 5000, Iterations: 4, PS: 0.1, Machines: 16, Seed: 4,
		ErasureModel: ErasureIndependent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrogs+res.LostFrogs != 5000 {
		t.Errorf("%d settled + %d lost frogs, want 5000", res.TotalFrogs, res.LostFrogs)
	}
}

func TestVisitsTallyCoversFrogs(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(800, 15))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{
		Walkers: 500, Iterations: 4, PS: 1, Machines: 4, Seed: 1,
		Estimator: EstimatorVisits,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrogs < 500 {
		t.Errorf("visit tally %d below frog count", res.TotalFrogs)
	}
}
