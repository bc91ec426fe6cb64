package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
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
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 25000, MeanOutDeg: 8, DegExponent: 2.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gstore.Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, rg); err != nil {
		t.Fatal(err)
	}
	pg, err := gstore.Open(path, gstore.OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	if !pg.Paged() {
		t.Fatal("Mem: 1 open is not paged")
	}
	base, err := Build(g, BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 11, WorkersPerMachine: 1, MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"plain": g, "relabeled": rg, "paged": pg}, base
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

// pagedVariants is one engine run served over the three layouts of
// pagedGraphs with the given executor worker count.
func pagedVariants(t *testing.T, workers int) map[string]*Server {
	t.Helper()
	graphs, base := pagedGraphs(t)
	return serveVariants(graphs, base, PPROptions{Workers: workers, CacheSize: -1})
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

// TestPagedServingBytesIdentical is the PR's core acceptance check:
// every served body — topk, rank, and the walk-driven ppr — is
// byte-identical whether the graph is heap-resident, relabeled, or
// paged at the smallest possible budget, across worker counts.
func TestPagedServingBytesIdentical(t *testing.T) {
	urls := []string{
		"/v1/topk?k=25",
		"/v1/rank?vertex=0",
		"/v1/rank?vertex=42",
		"/v1/ppr?source=1&k=20",
		"/v1/ppr?source=3&source=700&k=10",
		"/v1/ppr?source=24999&k=5",
	}
	var want map[string]string
	for _, workers := range []int{1, 4} {
		servers := pagedVariants(t, workers)
		ref := servers["plain"]
		if want == nil {
			want = make(map[string]string)
			for _, u := range urls {
				want[u] = body(t, ref, u)
			}
		}
		for name, srv := range servers {
			for _, u := range urls {
				if got := body(t, srv, u); got != want[u] {
					t.Errorf("workers=%d %s: GET %s body differs from plain reference\n got: %s\nwant: %s",
						workers, name, u, got, want[u])
				}
			}
		}
	}
}

// TestPagedPPRConcurrentEviction hammers the paged server with
// concurrent multi-source PPR traffic at the minimum page budget —
// constant pin/unpin/evict cycles across goroutines (run under -race)
// — and checks every body against the unpaged server's.
func TestPagedPPRConcurrentEviction(t *testing.T) {
	servers := pagedVariants(t, 4)
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
	if steps := paged.ppr.batcher.steps.Value(); steps == 0 {
		t.Fatal("paged executor recorded no walk steps")
	} else if local := paged.ppr.batcher.local.Value(); local > steps {
		t.Fatalf("page-local steps %d exceed total steps %d", local, steps)
	}
}
