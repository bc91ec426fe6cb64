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
)

// fetchBody is a goroutine-safe raw GET (no testing.T calls).
func fetchBody(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// TestPPRConsistentDuringSwap hammers /v1/ppr from several clients
// while a refresher swaps snapshots as fast as it can. The
// singleflight joins identical concurrent requests, the LRU caches
// across them and the slot gate bounds the rest, so under -race this
// exercises all three against the swap path; the consistency assertion
// is the epoch contract: for one (epoch, URL) pair every response body
// is bit-identical, no matter which flight or cache entry produced it.
func TestPPRConsistentDuringSwap(t *testing.T) {
	const (
		n         = 2000
		clients   = 8
		perClient = 150
	)
	g := gen.Cycle(n)
	build := func(generation uint64) (*Snapshot, error) {
		ranks := make([]float64, n)
		for v := range ranks {
			ranks[v] = 1 / float64(n)
		}
		return FromRanks(g, EngineFrogWild, generation, ranks, 50)
	}

	st := NewStore()
	refresher := NewRefresher(st, build, 0)
	if _, err := refresher.Refresh(); err != nil {
		t.Fatal(err)
	}
	// Small cache so swaps also churn entries out by capacity, and a
	// small walk count so queries are fast relative to swaps.
	srv := NewServer(st, ServerOptions{PPR: PPROptions{WalksPerSource: 50, CacheSize: 8}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var stop atomic.Bool
	swapDone := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := refresher.Refresh(); err != nil {
				swapDone <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		swapDone <- nil
	}()

	// seen pins the first body observed for each (epoch, URL); every
	// later response for the pair must match it byte for byte.
	type bodyKey struct {
		epoch uint64
		url   string
	}
	var seenMu sync.Mutex
	seen := make(map[bodyKey][]byte)

	urls := []string{
		"/v1/ppr?source=7&k=10",
		"/v1/ppr?sources=1,2,3&k=5",
		"/v1/ppr?sources=42,17&k=25",
		"/v1/ppr?source=999&k=10",
	}
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				url := urls[(c+i)%len(urls)]
				status, body, err := fetchBody(ts.URL + url)
				if err != nil {
					errs <- err.Error()
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d: %s", url, status, body)
					return
				}
				var resp struct {
					Epoch uint64 `json:"epoch"`
				}
				if err := json.Unmarshal(body, &resp); err != nil || resp.Epoch == 0 {
					errs <- fmt.Sprintf("%s: bad epoch in %q", url, body)
					return
				}
				key := bodyKey{resp.Epoch, url}
				seenMu.Lock()
				if prev, ok := seen[key]; !ok {
					seen[key] = body
				} else if string(prev) != string(body) {
					seenMu.Unlock()
					errs <- fmt.Sprintf("%s: two different bodies within epoch %d", url, resp.Epoch)
					return
				}
				seenMu.Unlock()
			}
		}(c)
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
	t.Logf("served %d ppr queries across %d epochs (%d cache hits, %d coalesced)",
		srv.ppr.queries.Value(), st.epoch.Load(), srv.ppr.cacheHits.Value(), srv.coalesced.Value())
}

// TestPPRCacheEvictionUnderLoad drives a capacity-4 LRU with many
// concurrent clients spread over far more than 4 distinct source
// sets. Under -race this pins the cache's locking on the hot
// Get/Put/evict path; the assertions pin the size bound and that
// eviction never corrupts answers (each distinct URL has exactly one
// body all goroutines agree on — the store never swaps here).
func TestPPRCacheEvictionUnderLoad(t *testing.T) {
	srv, _ := pprServer(t, PPROptions{WalksPerSource: 20, CacheSize: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients, perClient, distinct = 8, 100, 24
	var bodies [distinct]atomic.Pointer[string]
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				slot := (c*perClient + i*7) % distinct
				url := fmt.Sprintf("/v1/ppr?source=%d&k=5", slot+1)
				status, body, err := fetchBody(ts.URL + url)
				if err != nil {
					errs <- err.Error()
					return
				}
				if status != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d: %s", url, status, body)
					return
				}
				s := string(body)
				if !bodies[slot].CompareAndSwap(nil, &s) && *bodies[slot].Load() != s {
					errs <- fmt.Sprintf("%s: body changed across cache eviction", url)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if n := srv.ppr.cache.Len(); n > 4 {
		t.Fatalf("cache grew to %d entries past its capacity 4", n)
	}
	if srv.ppr.cache.evictions.Value() == 0 {
		t.Fatal("no evictions: load did not exercise capacity pressure")
	}
	if srv.ppr.cacheHits.Value() == 0 {
		t.Fatal("no cache hits: load did not exercise the hit path")
	}
}
