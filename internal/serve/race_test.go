package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph/gen"
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
