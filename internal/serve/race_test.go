package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// fetchTopK is a goroutine-safe /v1/topk client (no testing.T calls).
func fetchTopK(url string) (*api.TopKResponse, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var got api.TopKResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("bad JSON %q: %v", body, err)
	}
	return &got, nil
}

// TestTopKConsistentDuringSwap hammers /v1/topk from several clients
// while a refresher swaps snapshots as fast as it can, and asserts
// every response is internally consistent: all entries belong to the
// epoch the response claims, bit-identically. Run under -race this also
// proves the lock-free read path and the bodies rendered at publish are
// data-race free across swaps.
func TestTopKConsistentDuringSwap(t *testing.T) {
	const (
		n          = 2000
		k          = 25
		clients    = 8
		perClient  = 200
		rankStride = 1009 // prime, so generations permute the order
	)
	g := gen.Cycle(n)

	// Synthetic per-generation rank vectors: cheap to build (so swaps
	// are frequent relative to queries) and deterministic, so the
	// expected top-k for any epoch can be recomputed exactly.
	ranksFor := func(generation uint64) []float64 {
		ranks := make([]float64, n)
		var sum float64
		for v := range ranks {
			ranks[v] = float64((uint64(v)*rankStride + generation*31) % uint64(n))
			sum += ranks[v]
		}
		for v := range ranks {
			ranks[v] /= sum
		}
		return ranks
	}
	build := func(generation uint64) (*Snapshot, error) {
		return FromRanks(g, EngineFrogWild, generation, ranksFor(generation), 50)
	}

	st := NewStore()
	refresher := NewRefresher(st, build, 0)
	if _, err := refresher.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Swap continuously until the clients are done.
	var stop atomic.Bool
	swapDone := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := refresher.Refresh(); err != nil {
				swapDone <- err
				return
			}
			// Brief pause so queries land on each epoch (an unthrottled
			// swapper runs thousands of epochs per query).
			time.Sleep(200 * time.Microsecond)
		}
		swapDone <- nil
	}()

	// expected memoizes the reference answer per epoch (epoch e was
	// built from generation e-1).
	var expectMu sync.Mutex
	expected := make(map[uint64][]topk.Entry)
	expectFor := func(epoch uint64) []topk.Entry {
		expectMu.Lock()
		defer expectMu.Unlock()
		if want, ok := expected[epoch]; ok {
			return want
		}
		want := topk.Top(ranksFor(epoch-1), k)
		expected[epoch] = want
		return want
	}

	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// No t.Fatal here: these run off the test goroutine.
				got, err := fetchTopK(ts.URL + "/v1/topk?k=25")
				if err != nil {
					errs <- err.Error()
					return
				}
				if got.Epoch == 0 {
					errs <- "response missing its epoch"
					return
				}
				want := expectFor(got.Epoch)
				if len(got.Entries) != len(want) {
					errs <- "entry count mismatch"
					return
				}
				for j, e := range got.Entries {
					if e.Vertex != want[j].Vertex || e.Score != want[j].Score {
						errs <- "response mixes epochs or corrupts entries"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	if err := <-swapDone; err != nil {
		t.Fatalf("refresher: %v", err)
	}
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if st.epoch.Load() < 2 {
		t.Fatalf("test never swapped (epoch %d); consistency not exercised", st.epoch.Load())
	}
	t.Logf("served %d queries across %d epochs (%d cache hits, %d coalesced)",
		srv.Queries(), st.epoch.Load(), srv.CacheHits(), srv.coalesced.Value())
}

// TestCompareDuringSwap hammers /v1/compare from several clients while
// a refresher publishes snapshots over two graphs in turn, and asserts
// every answer is its epoch's graph's: the one cached (graph, ranks)
// pair never answers for the other graph, however the swaps and
// flights interleave. Run under -race this covers the pair and the
// flight keyed by the graph.
func TestCompareDuringSwap(t *testing.T) {
	const (
		clients   = 4
		perClient = 40
		k         = 20
	)
	graphs := [2]*graph.Graph{testGraph(t), powerLaw(t, gen.TwitterLike(2000, 8))}
	var refs [2][]float64
	for i, g := range graphs {
		res, err := pagerank.Exact(g, pagerank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res.Rank
	}
	// Generation g serves the other graph's exact ranks on graph g%2,
	// so the two graphs' answers differ; epoch e is generation e-1.
	build := func(generation uint64) (*Snapshot, error) {
		i := generation % 2
		return FromRanks(graphs[i], EngineFrogWild, generation, slices.Clone(refs[1-i]), 50)
	}
	want := func(epoch uint64) api.CompareResponse {
		i := (epoch - 1) % 2
		ref, est := refs[i], refs[1-i]
		return api.CompareResponse{
			Epoch: epoch, Engine: EngineFrogWild, Against: EngineExact, K: k,
			CapturedMass:        topk.CapturedMass(ref, est, k),
			NormalizedMass:      topk.NormalizedCapturedMass(ref, est, k),
			ExactIdentification: topk.ExactIdentification(ref, est, k),
			L1Distance:          topk.L1Distance(ref, est),
		}
	}

	st := NewStore()
	refresher := NewRefresher(st, build, 0)
	if _, err := refresher.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ServerOptions{})

	var stop atomic.Bool
	swapDone := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := refresher.Refresh(); err != nil {
				swapDone <- err
				return
			}
		}
		swapDone <- nil
	}()

	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/compare?k=20", nil))
				var got api.CompareResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					errs <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body)
					return
				}
				if got != want(got.Epoch) {
					errs <- fmt.Sprintf("epoch %d answered %+v, want %+v", got.Epoch, got, want(got.Epoch))
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	if err := <-swapDone; err != nil {
		t.Fatalf("refresher: %v", err)
	}
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if st.epoch.Load() < 3 {
		t.Fatalf("test never swapped graphs (epoch %d)", st.epoch.Load())
	}
}
