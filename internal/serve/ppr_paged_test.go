package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/graph/pcache"
)

// pagedGraphs returns three storage layouts of the same logical graph
// — heap-resident, degree-relabeled, and relabeled + paged at a
// one-byte budget (the pool floors that to its minimum frame count, so
// every walk step contends for a handful of pages) — and one snapshot
// built on the resident one. Closers run on test cleanup.
func pagedGraphs(t *testing.T) (map[string]*graph.Graph, *Snapshot) {
	t.Helper()
	// Big enough that the out-adjacency alone spans more pages than the
	// pool's minimum frame count, so the tiny budget really evicts.
	return pagedLayouts(t, powerLaw(t, gen.PowerLawConfig{N: 25000, MeanOutDeg: 8, DegExponent: 2.1, Seed: 5}),
		BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 11, MaxK: 50},
		map[string]float64{"paged": 0})
}

// powerLaw generates cfg's graph.
func powerLaw(t *testing.T, cfg gen.PowerLawConfig) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pagedLayouts returns g heap-resident ("plain"), degree-relabeled
// ("relabeled"), and relabeled + paged once per entry of budgets, whose
// value is the pool's size as a fraction of the out-adjacency's pages —
// what walks touch (the pool floors it to its minimum frame count) —
// with one snapshot built on the plain one.
func pagedLayouts(t *testing.T, g *graph.Graph, build BuildConfig, budgets map[string]float64) (map[string]*graph.Graph, *Snapshot) {
	t.Helper()
	rg, path := relabeledFile(t, g)
	graphs := map[string]*graph.Graph{"plain": g, "relabeled": rg}
	for name, frac := range budgets {
		graphs[name] = openPaged(t, path, int64(frac*float64(g.NumEdges()*4)))
	}
	base, err := Build(g, build)
	if err != nil {
		t.Fatal(err)
	}
	return graphs, base
}

// relabeledFile degree-relabels g and saves it to a gstore file,
// returning the relabeled graph and the file's path.
func relabeledFile(t *testing.T, g *graph.Graph) (*graph.Graph, string) {
	t.Helper()
	rg, err := gstore.Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, rg); err != nil {
		t.Fatal(err)
	}
	return rg, path
}

// openPaged opens the file at path paged, with a pool of about mem
// bytes (floored to the pool's minimum frame count), closed on cleanup.
func openPaged(t *testing.T, path string, mem int64) *graph.Graph {
	t.Helper()
	pg, err := gstore.Open(path, gstore.OpenOptions{Mem: max(mem, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	if !pg.Paged() {
		t.Fatalf("%s: a Mem open is not paged", path)
	}
	return pg
}

// serveVariants returns one server per layout, each serving a shallow
// copy of base with its own Graph — exactly like a warm start from
// -snapshot-dir onto a paged open.
func serveVariants(graphs map[string]*graph.Graph, base *Snapshot, ppr PPROptions) map[string]*Server {
	servers := make(map[string]*Server)
	for name, vg := range graphs {
		snap := *base
		snap.Graph = vg
		store := NewStore()
		store.Publish(&snap)
		servers[name] = NewServer(store, ServerOptions{PPR: ppr})
	}
	return servers
}

func body(t *testing.T, srv *Server, url string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestPagedServingBytesIdentical is the paged path's core acceptance
// check: every served body — topk, rank, and the walk-driven ppr — is
// byte-identical whether the graph is heap-resident, relabeled, or paged
// with the pool's minimum of frames, a quarter or three quarters of the
// pages the requests touch. Which steps wait for a page, and in which
// order pages load, differs in every one of those cells; the bodies
// cannot.
func TestPagedServingBytesIdentical(t *testing.T) {
	urls := []string{
		"/v1/topk?k=25",
		"/v1/rank?vertex=0",
		"/v1/rank?vertex=42",
		"/v1/ppr?source=1&k=20",
		"/v1/ppr?source=3&source=700&k=10",
		"/v1/ppr?sources=3,700,19999,12,4242,77,15000&k=10",
		"/v1/ppr?source=19999&k=5",
	}
	g := powerLaw(t, gen.PowerLawConfig{N: 20000, MeanOutDeg: 48, DegExponent: 2.1, Seed: 5})
	rg, path := relabeledFile(t, g)
	base, err := Build(g, BuildConfig{Engine: EngineExact, Seed: 11, MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"plain": g, "relabeled": rg}

	// The live set: the pages the requests touch, each loaded once by a
	// pool with a frame for every page of the file. The budgets are then
	// the pool's minimum and a quarter and three quarters of that set, so
	// each of them must evict.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	roomy := openPaged(t, path, fi.Size())
	roomySrv := serveVariants(map[string]*graph.Graph{"roomy": roomy}, base, PPROptions{CacheSize: -1})["roomy"]
	for _, u := range urls {
		body(t, roomySrv, u)
	}
	pc, _ := roomy.PageCacheStats()
	if pc.Evictions != 0 {
		t.Fatalf("a pool the size of the file evicted %d pages", pc.Evictions)
	}
	live := int64(pc.Misses)
	for name, frames := range map[string]int64{"paged/min": 0, "paged/quarter": live / 4, "paged/three-quarters": live * 3 / 4} {
		graphs[name] = openPaged(t, path, frames*pcache.PageSize)
	}
	frames := make(map[int]bool)
	for name, g := range graphs {
		if pc, ok := g.PageCacheStats(); ok {
			frames[pc.BudgetPages] = true
			t.Logf("%s: %d frames of the %d pages the requests touch", name, pc.BudgetPages, live)
		}
	}
	if len(frames) != 3 {
		t.Fatalf("the three budgets are %d distinct frame counts", len(frames))
	}
	servers := serveVariants(graphs, base, PPROptions{CacheSize: -1})
	for _, u := range urls {
		want := body(t, servers["plain"], u)
		for name, srv := range servers {
			if got := body(t, srv, u); got != want {
				t.Errorf("%s: GET %s body differs from plain reference\n got: %s\nwant: %s", name, u, got, want)
			}
		}
	}
	for name, g := range graphs {
		if pc, ok := g.PageCacheStats(); ok && pc.Evictions == 0 {
			t.Errorf("%s: no page was ever evicted; the budget did not bind", name)
		}
	}
}

// TestPagedPPRConcurrentEviction hammers the paged server with
// concurrent multi-source PPR traffic at the minimum page budget —
// constant load/evict/recycle cycles across goroutines (run under -race)
// — and checks every body against the unpaged server's.
func TestPagedPPRConcurrentEviction(t *testing.T) {
	graphs, base := pagedGraphs(t)
	servers := serveVariants(graphs, base, PPROptions{CacheSize: -1})
	plain, paged := servers["plain"], servers["paged"]

	urls := make([]string, 24)
	for i := range urls {
		urls[i] = fmt.Sprintf("/v1/ppr?source=%d&source=%d&k=15", (i*997)%25000, (i*6211+5)%25000)
	}
	want := make([]string, len(urls))
	for i, u := range urls {
		want[i] = body(t, plain, u)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3*len(urls); i++ {
				j := (w + i) % len(urls)
				rec := httptest.NewRecorder()
				paged.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[j], nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body)
					return
				}
				if rec.Body.String() != want[j] {
					errs <- fmt.Sprintf("GET %s: paged body diverged under concurrency", urls[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	snap := paged.store.Current()
	stats, ok := snap.Graph.PageCacheStats()
	if !ok {
		t.Fatal("paged graph reports no page-cache stats")
	}
	if stats.Evictions == 0 {
		t.Fatal("tiny budget saw no evictions under load")
	}
	if steps := paged.ppr.steps.Value(); steps == 0 {
		t.Fatal("paged server recorded no walk steps")
	} else if local := paged.ppr.local.Value(); local > steps {
		t.Fatalf("page-local steps %d exceed total steps %d", local, steps)
	}

	// What the kernel waited for is counted where an operator reads it:
	// on the paged server some steps waited, in sweeps that each served
	// at least one of them; on the resident one nothing ever does.
	for _, tc := range []struct {
		name   string
		srv    *Server
		waited bool
	}{{"paged", paged, true}, {"plain", plain, false}} {
		e := tc.srv.ppr
		steps, waits, sweeps := e.steps.Value(), e.waits.Value(), e.sweeps.Value()
		if (waits > 0) != tc.waited || (sweeps > 0) != tc.waited || waits >= steps || sweeps > waits {
			t.Errorf("%s: %d waits in %d sweeps over %d steps", tc.name, waits, sweeps, steps)
		}
		if got := tc.srv.statsBody(tc.srv.store.Current()).Serving.PPRWalkWaits; got != waits {
			t.Errorf("%s: /v1/stats pprWalkWaits %d, counter %d", tc.name, got, waits)
		}
		rec := httptest.NewRecorder()
		tc.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, want := range []string{
			fmt.Sprintf("ppr_walk_waits_total %d", waits),
			fmt.Sprintf("ppr_walk_sweeps_total %d", sweeps),
		} {
			if !containsLine(rec.Body.String(), want) {
				t.Errorf("%s: /metrics missing %q", tc.name, want)
			}
		}
	}
}
