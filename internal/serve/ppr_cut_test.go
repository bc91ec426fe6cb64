package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve/api"
)

// pprWantBody is the /v1/ppr body for the top-k of sources over snap,
// rendered by encoding/json from PPRTopK's cut to k: the reference a
// body served from a longer cut must equal byte for byte.
func pprWantBody(t *testing.T, snap *Snapshot, sources []graph.VertexID, k int, opts PPROptions) string {
	t.Helper()
	entries, truncated, err := PPRTopK(snap, sources, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, _, err := planPPR(sources, k, snap.Graph.NumVertices(), opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]api.TopKEntry, len(entries))
	for i, e := range entries {
		rows[i] = api.TopKEntry{Vertex: e.Vertex, Score: e.Score}
	}
	b, err := json.Marshal(api.PPRResponse{
		Epoch: snap.Epoch, Engine: snap.Engine, Seed: snap.Seed, Sources: plan.sources,
		K: len(rows), Walks: plan.walks(), Truncated: truncated, Entries: rows,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestPPREveryKIsAPrefixOfOneCut pins what serving every k from one
// top-MaxK cut rests on: for every k from 1 to MaxK — the k that computed
// the cut and every k that hit it after — the body is the one
// encoding/json renders for PPRTopK's own cut to k. Resident, relabeled
// and paged graphs; one source and four; within the walk budget,
// truncated by it, and so few walks that the cut is shorter than most k
// (the body's k is then the rows there are).
func TestPPREveryKIsAPrefixOfOneCut(t *testing.T) {
	graphs, base := pagedGraphs(t)
	const maxK = 60
	sourceSets := [][]graph.VertexID{{1}, {3, 700, 24999, 12}}
	short := false
	for _, opts := range []PPROptions{
		{MaxK: maxK},
		{MaxK: maxK, WalkBudget: 1500},
		{MaxK: maxK, WalksPerSource: 2},
	} {
		servers := serveVariants(graphs, base, opts)
		ref := servers["plain"].Snapshot()
		for _, sources := range sourceSets {
			ids := make([]string, len(sources))
			for i, s := range sources {
				ids[i] = fmt.Sprint(s)
			}
			want := make([]string, maxK+1)
			for k := 1; k <= maxK; k++ {
				want[k] = pprWantBody(t, ref, sources, k, opts)
			}
			for name, srv := range servers {
				// The cut is computed by the first request, at a k in the
				// middle; every k after it, smaller and larger, hits it.
				hits := srv.ppr.cacheHits.Value()
				for i := range maxK + 1 {
					k := i
					if i == 0 {
						k = maxK / 2
					}
					url := fmt.Sprintf("/v1/ppr?sources=%s&k=%d", strings.Join(ids, ","), k)
					if got := body(t, srv, url); got != want[k] {
						t.Fatalf("%s %+v: request %d, GET %s\n got: %s\nwant: %s", name, opts, i, url, got, want[k])
					}
				}
				if hits = srv.ppr.cacheHits.Value() - hits; hits != maxK {
					t.Fatalf("%s %+v: sources %v: %d of %d requests hit the cache, want all but the first", name, opts, sources, hits, maxK+1)
				}
			}
			var resp api.PPRResponse
			if err := json.Unmarshal([]byte(want[maxK]), &resp); err != nil {
				t.Fatal(err)
			}
			short = short || resp.K < maxK
		}
	}
	if !short {
		t.Fatal("every cut had MaxK rows: a body shorter than its k was never served")
	}
}

// TestPPRConcurrentKsShareOneWalk pins the flight's and the cache's key:
// requests for one source set that arrive while its walks wait for a slot
// join them whatever their k, so the set is walked once, and each request
// still gets the body for its own k.
func TestPPRConcurrentKsShareOneWalk(t *testing.T) {
	opts := PPROptions{WalksPerSource: 100}
	srv, snap := pprServer(t, opts)
	for range cap(srv.ppr.slots) {
		srv.ppr.slots <- struct{}{}
	}
	ks := []int{1, 5, 20, 37, 100}
	got := make([]string, len(ks))
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/ppr?source=3&k=%d", k), nil))
			got[i] = rec.Body.String()
		}()
	}
	for srv.ppr.queries.Value() < uint64(len(ks)) {
		runtime.Gosched()
	}
	for range cap(srv.ppr.slots) {
		<-srv.ppr.slots
	}
	wg.Wait()
	for i, k := range ks {
		if want := pprWantBody(t, snap, []graph.VertexID{3}, k, opts); got[i] != want {
			t.Errorf("k=%d:\n got: %s\nwant: %s", k, got[i], want)
		}
	}
	if walks := srv.ppr.walks.Value(); walks != 100 {
		t.Errorf("%d requests for one source set walked %d times its 100 walks, want once", len(ks), walks/100)
	}
	if joined := srv.coalesced.Value() + srv.ppr.cacheHits.Value(); joined != uint64(len(ks)-1) {
		t.Errorf("%d requests joined the flight or hit its cut, want %d", joined, len(ks)-1)
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestPPRHitAllocs bounds what a cache hit allocates in the handler to
// the query string's parse: url.Values (the map and a slice per
// parameter), the source list and its canonical copy. The key is built
// on the stack, the body in a pooled buffer from the cut's rendering, and
// the Content-Type header's value is shared.
func TestPPRHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	srv, _ := pprServer(t, PPROptions{})
	for _, url := range []string{"/v1/ppr?source=7&k=10", "/v1/ppr?sources=7,3,9,1&k=100"} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		w := &discardWriter{h: make(http.Header)}
		srv.handlePPR(w, req, "")
		hits := srv.ppr.cacheHits.Value()
		allocs := testing.AllocsPerRun(100, func() { srv.handlePPR(w, req, "") })
		if srv.ppr.cacheHits.Value() == hits {
			t.Fatalf("GET %s never hit the cache", url)
		}
		if allocs > 6 {
			t.Errorf("GET %s: a cache hit allocates %.0f times, want ≤ 6", url, allocs)
		}
	}
}
