package walk_test

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/graph/pcache"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/theory"
	"repro/internal/walk"
)

const pT = 0.15

// danglingGraph is a power-law graph with every seventh vertex's
// out-edges removed, so both dangling policies are exercised.
func danglingGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: n, MeanOutDeg: 5, DegExponent: 2.1, PrefExponent: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var kept []graph.Edge
	g.Edges(func(e graph.Edge) bool {
		if e.Src%7 != 3 {
			kept = append(kept, e)
		}
		return true
	})
	return graph.FromEdges(n, kept)
}

// chiSquare is Pearson's statistic of counts against total·want, with
// cells expecting fewer than five pooled into one; it returns the
// statistic and the degrees of freedom.
func chiSquare(counts []int64, want []float64, total int64) (chi2 float64, dof int) {
	var poolGot, poolWant float64
	cell := func(got, expected float64) {
		d := got - expected
		chi2 += d * d / expected
		dof++
	}
	for v, c := range counts {
		expected := want[v] * float64(total)
		if expected < 5 {
			poolGot += float64(c)
			poolWant += expected
			continue
		}
		cell(float64(c), expected)
	}
	if poolWant > 0 {
		cell(poolGot, poolWant)
	}
	return chi2, dof - 1
}

// checkLaw fails unless counts is a plausible sample of want: the
// statistic must stay within five standard deviations of its mean
// (seeds are fixed, so this is a regression bound, not a coin flip).
func checkLaw(t *testing.T, name string, counts []int64, want []float64) {
	t.Helper()
	var total int64
	for _, c := range counts {
		total += c
	}
	chi2, dof := chiSquare(counts, want, total)
	if limit := float64(dof) + 5*math.Sqrt(2*float64(dof)); chi2 > limit {
		t.Errorf("%s: χ² = %.1f over %d walks, want ≤ %.1f (dof %d)", name, chi2, total, limit, dof)
	}
}

// TestUniformStopCutoffLaw: uniform start, stop at dangling, length
// min(Geometric(pT), t) — the serial FrogWild configuration — samples
// the paper's Process 15 distribution (equation (5)), whichever of the
// two draws of that length the caller uses.
func TestUniformStopCutoffLaw(t *testing.T) {
	g := danglingGraph(t, 120)
	n := g.NumVertices()
	const walkers, cutoff = 300000, 5
	want, err := theory.TruncatedGeometricDistribution(g, cutoff, pT)
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[string]func(*rng.Stream) int{
		"Geometric": func(st *rng.Stream) int { return min(st.Geometric(pT), cutoff) },
		"Length":    func(st *rng.Stream) int { return walk.Length(st, pT, cutoff) },
	}
	for name, length := range lengths {
		for seed := uint64(1); seed <= 3; seed++ {
			counts, _ := walk.Tally(g, walkers, false, func(s *walk.Scratch, i int) {
				st := rng.DeriveValue(seed, uint64(i))
				start := graph.VertexID(st.Intn(n))
				left := length(&st)
				s.Add(st, start, left)
			})
			checkLaw(t, "uniform/stop/cutoff by "+name, counts, want)
		}
	}
}

// pprTally runs walks walks from each source under the restart policy
// — the personalized PageRank configuration — and returns the dense
// endpoint tally.
func pprTally(g *graph.Graph, sources []graph.VertexID, walks int, seed uint64) []int64 {
	s := walk.Get()
	defer s.Put()
	for _, src := range sources {
		for w := 0; w < walks; w++ {
			st := rng.DeriveValue(seed, uint64(src), uint64(w))
			left := min(st.Geometric(pT), 64)
			s.Add(st, src, left)
		}
	}
	r := g.NewAdjReader()
	defer r.Release()
	s.Run(r, true, false)
	counts := make([]int64, g.NumVertices())
	for i := range s.Walkers {
		counts[s.Walkers[i].Cur]++
	}
	return counts
}

// TestSourceRestartLaw: start at the source, restart there from a
// dangling vertex, geometric length — the endpoint samples the
// source's exact personalized PageRank, and equal walk counts per
// source sample the uniform mixture of the per-source vectors. A
// budget-truncated run (an eighth of the walks) samples the same
// distribution: truncating the budget costs variance, never bias.
func TestSourceRestartLaw(t *testing.T) {
	g := danglingGraph(t, 120)
	sources := []graph.VertexID{3, 10, 57} // 3 and 10 are dangling
	want := make([]float64, g.NumVertices())
	for _, src := range sources {
		exact, err := frogwild.ExactPPR(g, []graph.VertexID{src}, pT, 1e-14, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for v, p := range exact {
			want[v] += p / float64(len(sources))
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		checkLaw(t, "source/restart", pprTally(g, sources, 80000, seed), want)
		checkLaw(t, "source/restart truncated", pprTally(g, sources, 10000, seed), want)
	}
}

// serialVisits walks each walker on its own, in a hand-written
// loop, and returns the dense count of every position it stands on:
// the start, each edge move and, under the restart policy, each return
// Home from a dangling vertex.
func serialVisits(g *graph.Graph, walkers []walk.Walker, restart bool) []int64 {
	counts := make([]int64, g.NumVertices())
	adj := g.NewAdjReader()
	defer adj.Release()
	for _, w := range walkers {
		cur, st := w.Cur, w.Stream
		counts[cur]++
		for left := w.Left; left > 0; left-- {
			outs := adj.OutNeighbors(cur)
			if len(outs) == 0 {
				if !restart {
					break
				}
				cur = w.Home
			} else {
				cur = outs[st.Intn(len(outs))]
			}
			counts[cur]++
		}
	}
	return counts
}

// TestCompletePathCountsEveryVisit: the visit tally holds each walk's
// start plus one visit per step taken — under the stop policy through
// Tally, and under the restart policy through the Scratch's own table,
// where a return from a dangling vertex is a step and its landing a
// visit. Both equal a hand-written serial walk vertex for vertex.
func TestCompletePathCountsEveryVisit(t *testing.T) {
	g := danglingGraph(t, 200)
	const walks = 5000
	seed := func(s *walk.Scratch, i int) {
		st := rng.DeriveValue(9, uint64(i))
		left := min(st.Geometric(pT), 1000)
		s.Add(st, graph.VertexID(i%g.NumVertices()), left)
	}
	sum := func(counts []int64) (total int64) {
		for _, c := range counts {
			total += c
		}
		return total
	}
	visits, steps := walk.Tally(g, walks, true, seed)
	if want := walks + int64(steps); sum(visits) != want {
		t.Fatalf("complete-path tally sums to %d, want walks + steps = %d", sum(visits), want)
	}
	ends, endSteps := walk.Tally(g, walks, false, seed)
	if sum(ends) != walks || endSteps != steps {
		t.Fatalf("endpoint tally sums to %d in %d steps, want %d in %d", sum(ends), endSteps, walks, steps)
	}

	s := walk.Get()
	defer s.Put()
	for i := range walks {
		seed(s, i)
	}
	start := slices.Clone(s.Walkers)
	if want := serialVisits(g, start, false); !slices.Equal(visits, want) {
		t.Error("stop policy: Tally's complete path differs from the serial walk")
	}
	r := g.NewAdjReader()
	defer r.Release()
	st := s.Run(r, true, true)
	got := make([]int64, g.NumVertices())
	for _, v := range s.Visits() {
		got[v.Vertex] += int64(v.Count)
	}
	if want := walks + int64(st.Steps); sum(got) != want {
		t.Fatalf("restart policy: the visit tally sums to %d, want walks + steps = %d", sum(got), want)
	}
	if st.Steps <= steps {
		t.Fatalf("restart policy took %d steps, stop %d: no walk restarted", st.Steps, steps)
	}
	if want := serialVisits(g, start, true); !slices.Equal(got, want) {
		t.Error("restart policy: the visit tally differs from the serial walk")
	}
	if len(s.Visits()) != 0 {
		t.Error("a second Visits call still holds the tally")
	}
}

// TestTallyBitIdenticalAcrossWorkers: GOMAXPROCS, which sizes the
// pool, sets throughput only.
func TestTallyBitIdenticalAcrossWorkers(t *testing.T) {
	g := danglingGraph(t, 500)
	n := g.NumVertices()
	for _, completePath := range []bool{false, true} {
		run := func(procs int) ([]int64, uint64) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return walk.Tally(g, 20000, completePath, func(s *walk.Scratch, i int) {
				st := rng.DeriveValue(4, uint64(i))
				start := graph.VertexID(st.Intn(n))
				left := min(st.Geometric(pT), 8)
				s.Add(st, start, left)
			})
		}
		ref, refSteps := run(1)
		for _, procs := range []int{2, 4, 7} {
			got, steps := run(procs)
			if !reflect.DeepEqual(got, ref) || steps != refSteps {
				t.Errorf("completePath=%v GOMAXPROCS=%d: tally differs from GOMAXPROCS=1", completePath, procs)
			}
		}
	}
}

// TestGroupingAndPagingInvariant: the per-task endpoint tallies of a
// fixed set of walkers, and the visit tally of all of them, do not
// depend on how the walkers are grouped
// into Run calls (all in one, one per task, uneven splits), on how many
// goroutines run those calls at once over one page cache, nor on
// whether the graph is resident or paged at the smallest budget, a
// quarter or three quarters of the pages one request touches — a
// walker's draws are a pure function of its own stream.
func TestGroupingAndPagingInvariant(t *testing.T) {
	path := budgetFixture(t)
	open := func(frames int) *graph.Graph {
		g, err := gstore.Open(path, gstore.OpenOptions{Mem: int64(frames) * pcache.PageSize, NoVerify: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	g := open(0) // resident
	live := budgetLive(t)
	layouts := map[string]*graph.Graph{"resident": g}
	for _, p := range budgetPoints {
		layouts["paged/"+p.name] = open(p.frames(live))
	}

	sources := []graph.VertexID{1, 700, 24999, 12, 4242}
	const walks = 400
	// tallies runs the tasks grouped as given (each group one Run on its
	// own reader, the groups spread over workers goroutines) and returns
	// task → vertex → endpoint count, and vertex → visits over all tasks.
	tallies := func(g *graph.Graph, groups [][]int, workers int) ([]map[graph.VertexID]int, map[graph.VertexID]int, walk.Stats) {
		out := make([]map[graph.VertexID]int, len(sources))
		for i := range out {
			out[i] = make(map[graph.VertexID]int)
		}
		visits := make(map[graph.VertexID]int)
		var mu sync.Mutex
		var total walk.Stats
		pool := parallel.NewPool(workers)
		defer pool.Close()
		pool.Run(len(groups), func(gi, _ int) {
			r := g.NewAdjReader()
			defer r.Release()
			s := walk.Get()
			defer s.Put()
			for _, task := range groups[gi] {
				for w := 0; w < walks; w++ {
					st := rng.DeriveValue(77, uint64(sources[task]), uint64(w))
					left := min(st.Geometric(pT), 64)
					s.Add(st, sources[task], left)
				}
			}
			st := s.Run(r, true, true)
			for i := range s.Walkers {
				task := groups[gi][i/walks]   // each task seeded walks walkers, in order
				out[task][s.Walkers[i].Cur]++ // a task is in one group: no two goroutines share a map
			}
			mu.Lock()
			for _, v := range s.Visits() {
				visits[v.Vertex] += int(v.Count)
			}
			total.Steps += st.Steps
			total.PageLocal += st.PageLocal
			total.Waits += st.Waits
			total.Sweeps += st.Sweeps
			mu.Unlock()
		})
		return out, visits, total
	}

	ref, refVisits, refStats := tallies(g, [][]int{{0, 1, 2, 3, 4}}, 1)
	if refStats.PageLocal != refStats.Steps || refStats.Waits != 0 || refStats.Sweeps != 0 {
		t.Errorf("resident run: %+v, want every step page-local and nothing waiting", refStats)
	}
	groupings := map[string][][]int{
		"one call":     {{0, 1, 2, 3, 4}},
		"one per task": {{0}, {1}, {2}, {3}, {4}},
		"uneven":       {{4, 0}, {2}, {1, 3}},
	}
	for name, groups := range groupings {
		for layout, vg := range layouts {
			for _, workers := range []int{1, 2, 4, 7} {
				got, visits, stats := tallies(vg, groups, workers)
				if !reflect.DeepEqual(got, ref) || !reflect.DeepEqual(visits, refVisits) || stats.Steps != refStats.Steps {
					t.Errorf("%s on %s graph, %d workers: tallies differ from one resident call", name, layout, workers)
				}
				if !vg.Paged() {
					continue
				}
				// A walker waits only on a miss, and only a sweep loads.
				if stats.Waits == 0 || stats.Sweeps == 0 || stats.Waits >= stats.Steps {
					t.Errorf("%s on %s graph, %d workers: %+v, want some steps waiting but not all", name, layout, workers, stats)
				}
				if stats.PageLocal >= stats.Steps {
					t.Errorf("%s on %s graph, %d workers: %d of %d steps page-local, want fewer", name, layout, workers, stats.PageLocal, stats.Steps)
				}
			}
		}
	}
}

// BenchmarkRun is the kernel's cost per request on a resident graph:
// the served configuration, 400 geometric walks from one source with
// every position tallied and read out, seeding included.
func BenchmarkRun(b *testing.B) {
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := g.NewAdjReader()
	lengths := rng.NewTruncGeometric(pT, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := walk.Get()
		src := graph.VertexID(i % g.NumVertices())
		for w := 0; w < 400; w++ {
			st := rng.DeriveValue(1, uint64(src), uint64(w))
			s.Add(st, src, lengths.Draw(&st))
		}
		s.Run(r, true, true)
		s.Visits()
		s.Put()
	}
}
