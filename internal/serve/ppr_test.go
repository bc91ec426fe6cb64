package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// pprServer builds a server over an exact epoch-1 snapshot of the
// shared test graph with the given PPR options.
func pprServer(t testing.TB, opts PPROptions) (*Server, *Snapshot) {
	t.Helper()
	g := testGraph(t)
	snap, err := Build(g, BuildConfig{Engine: EngineExact, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Publish(snap)
	return NewServer(store, ServerOptions{PPR: opts}), snap
}

// getPPR issues one GET and decodes the response body.
func getPPR(t testing.TB, srv *Server, url string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestPPRErrorEnvelopeTable pins the (status, code) pair of every
// error /v1/ppr can produce — the wire contract, mirroring the main
// endpoint error table.
func TestPPRErrorEnvelopeTable(t *testing.T) {
	srv, _ := pprServer(t, PPROptions{MaxK: 50, MaxSources: 4, WalkBudget: 64, WalksPerSource: 16})
	empty := NewServer(NewStore(), ServerOptions{})

	cases := []struct {
		name      string
		srv       *Server
		method    string
		url       string
		status    int
		code      string
		wantEpoch uint64
	}{
		{"missing source", srv, "GET", "/v1/ppr", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"bad source", srv, "GET", "/v1/ppr?source=x", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"negative source", srv, "GET", "/v1/ppr?source=-4", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"source out of range", srv, "GET", "/v1/ppr?source=99999", http.StatusNotFound, api.CodeNotFound, 1},
		{"one bad among good", srv, "GET", "/v1/ppr?sources=1,zap,3", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"empty sources", srv, "GET", "/v1/ppr?sources=", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"only separators", srv, "GET", "/v1/ppr?sources=,,%20,", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"bad k", srv, "GET", "/v1/ppr?source=1&k=zero", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"zero k", srv, "GET", "/v1/ppr?source=1&k=0", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"k over maxk", srv, "GET", "/v1/ppr?source=1&k=51", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"too many sources", srv, "GET", "/v1/ppr?sources=1,2,3,4,5", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"post rejected", srv, "POST", "/v1/ppr?source=1", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, 1},
		{"no snapshot", empty, "GET", "/v1/ppr?source=1", http.StatusServiceUnavailable, api.CodeNoSnapshot, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.url, nil)
			rec := httptest.NewRecorder()
			tc.srv.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.status, rec.Body.String())
			}
			var env api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope decode: %v (body %q)", err, rec.Body.String())
			}
			if env.Code != tc.code {
				t.Errorf("code %q, want %q", env.Code, tc.code)
			}
			if env.Message == "" {
				t.Error("empty error message")
			}
			if env.Epoch != tc.wantEpoch {
				t.Errorf("epoch %d, want %d", env.Epoch, tc.wantEpoch)
			}
		})
	}
	// A source-set too wide for the budget is a 400 of its own (walks
	// per source would round to zero): MaxSources 4 with budget 3.
	tight, _ := pprServer(t, PPROptions{MaxSources: 4, WalkBudget: 3, WalksPerSource: 16})
	code, body := getPPR(t, tight, "/v1/ppr?sources=1,2,3,4")
	if code != http.StatusBadRequest {
		t.Fatalf("budget-uncoverable status %d, want 400 (body %s)", code, body)
	}
}

// TestPPRResponseSanity checks the estimator against ground truth: the
// served top-k of a single hot source captures most of the exact
// personalized PageRank mass that any k-set could capture.
func TestPPRResponseSanity(t *testing.T) {
	srv, snap := pprServer(t, PPROptions{WalksPerSource: 4000, WalkBudget: 4000})
	const source, k = 7, 10
	code, body := getPPR(t, srv, fmt.Sprintf("/v1/ppr?source=%d&k=%d", source, k))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp api.PPRResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 || resp.Engine != snap.Engine || resp.Seed != snap.Seed {
		t.Errorf("provenance %d/%s/%d, want 1/%s/%d", resp.Epoch, resp.Engine, resp.Seed, snap.Engine, snap.Seed)
	}
	if len(resp.Sources) != 1 || resp.Sources[0] != source {
		t.Errorf("sources echo %v, want [%d]", resp.Sources, source)
	}
	if resp.Walks != 4000 || resp.Truncated {
		t.Errorf("walks %d truncated %v, want 4000 untruncated", resp.Walks, resp.Truncated)
	}
	if resp.K != len(resp.Entries) || resp.K == 0 || resp.K > k {
		t.Fatalf("k %d with %d entries", resp.K, len(resp.Entries))
	}
	var mass float64
	for i, e := range resp.Entries {
		if i > 0 && topk.Less(topk.Entry{Vertex: resp.Entries[i-1].Vertex, Score: resp.Entries[i-1].Score},
			topk.Entry{Vertex: e.Vertex, Score: e.Score}) {
			t.Fatalf("entries not in descending total order at %d", i)
		}
		if e.Score <= 0 || e.Score > 1 {
			t.Fatalf("entry %d score %v outside (0,1]", i, e.Score)
		}
		mass += e.Score
	}
	if mass > 1+1e-9 {
		t.Fatalf("top-%d scores sum to %v > 1", k, mass)
	}

	exact, err := frogwild.ExactPPR(testGraph(t), []graph.VertexID{source}, 0.15, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, e := range resp.Entries {
		got += exact[e.Vertex]
	}
	best := 0.0
	for _, e := range topk.Top(exact, k) {
		best += e.Score
	}
	// 4000 walks against a hot source: the walk estimate's k-set should
	// capture the bulk of the best possible k-set mass.
	if got < 0.7*best {
		t.Errorf("captured exact mass %v, want >= 70%% of optimal %v", got, best)
	}
}

// TestPPRSourceCanonicalization checks that order and duplicates in
// the source list do not change the answer: the canonical source set
// is what is walked, cached and echoed.
func TestPPRSourceCanonicalization(t *testing.T) {
	srv, _ := pprServer(t, PPROptions{WalksPerSource: 200})
	_, a := getPPR(t, srv, "/v1/ppr?sources=9,3,5&k=10")
	_, b := getPPR(t, srv, "/v1/ppr?sources=3,5,9,3,9&k=10")
	if string(a) != string(b) {
		t.Fatalf("permuted/duplicated sources changed the body:\n%s\nvs\n%s", a, b)
	}
	var resp api.PPRResponse
	if err := json.Unmarshal(a, &resp); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{3, 5, 9}; len(resp.Sources) != 3 ||
		resp.Sources[0] != want[0] || resp.Sources[1] != want[1] || resp.Sources[2] != want[2] {
		t.Fatalf("canonical sources %v, want %v", resp.Sources, want)
	}
	// source= and sources= are the same parameter.
	_, c := getPPR(t, srv, "/v1/ppr?source=3,5,9&k=10")
	if string(a) != string(c) {
		t.Fatal("source= and sources= diverge for the same set")
	}
}

// TestPPRBudgetTruncation pins the budget semantics: requests whose
// sources × walks-per-source exceed the budget run fewer walks per
// source, flag "truncated": true, and report the walks actually run.
func TestPPRBudgetTruncation(t *testing.T) {
	srv, _ := pprServer(t, PPROptions{WalksPerSource: 1000, WalkBudget: 100, MaxSources: 8})
	var resp api.PPRResponse

	code, body := getPPR(t, srv, "/v1/ppr?source=1&k=5")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || resp.Walks != 100 {
		t.Fatalf("single source: walks %d truncated %v, want 100 true", resp.Walks, resp.Truncated)
	}

	code, body = getPPR(t, srv, "/v1/ppr?sources=1,2,3&k=5")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// 100/3 = 33 walks per source.
	if !resp.Truncated || resp.Walks != 99 {
		t.Fatalf("three sources: walks %d truncated %v, want 99 true", resp.Walks, resp.Truncated)
	}
	if srv.ppr.truncated.Value() != 2 {
		t.Fatalf("truncated counter %d, want 2", srv.ppr.truncated.Value())
	}

	// Under budget: untruncated. Fresh variable — "truncated" is
	// omitted from untruncated responses, so a reused struct would
	// keep the stale true.
	within, _ := pprServer(t, PPROptions{WalksPerSource: 10, WalkBudget: 100, MaxSources: 8})
	_, body = getPPR(t, within, "/v1/ppr?sources=1,2,3&k=5")
	var fresh api.PPRResponse
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Truncated || fresh.Walks != 30 {
		t.Fatalf("under budget: walks %d truncated %v, want 30 false", fresh.Walks, fresh.Truncated)
	}
}

// TestPPRDeterministicPerEpoch is the determinism contract: within one
// epoch, identical requests produce bit-identical bodies — across
// repeats, across cache hits and misses, and whether a request walks
// alone or beside others. Walk randomness is a pure function of
// (epoch, source, sequence), so concurrency must never leak into
// results.
func TestPPRDeterministicPerEpoch(t *testing.T) {
	urls := []string{
		"/v1/ppr?source=7&k=10",
		"/v1/ppr?sources=1,2,3&k=5",
		"/v1/ppr?sources=42,17&k=25",
	}
	// Reference bodies from a cache-disabled server, one request at a time.
	ref := make(map[string][]byte)
	refSrv, _ := pprServer(t, PPROptions{CacheSize: -1, WalksPerSource: 500})
	for _, url := range urls {
		code, body := getPPR(t, refSrv, url)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, code, body)
		}
		ref[url] = body
	}
	srv, _ := pprServer(t, PPROptions{WalksPerSource: 500})
	// Issue every URL concurrently, twice (second round hits the LRU),
	// and compare every body to the reference.
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(urls))
		for _, url := range urls {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s: status %d", url, rec.Code)
					return
				}
				if rec.Body.String() != string(ref[url]) {
					errs <- fmt.Sprintf("%s: body diverges from the one-at-a-time reference", url)
				}
			}(url)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
	}
	if srv.ppr.cacheHits.Value() == 0 {
		t.Error("second round produced no cache hits")
	}
}

// TestPPRSlotsBoundKernelCalls pins the slot gate: one slot per P, and
// with every slot taken a cache-missing request walks nothing until a
// slot is free — then it answers what it always answers.
func TestPPRSlotsBoundKernelCalls(t *testing.T) {
	opts := PPROptions{WalksPerSource: 100}
	srv, _ := pprServer(t, opts)
	if got, want := cap(srv.ppr.slots), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("%d slots, want GOMAXPROCS = %d", got, want)
	}
	for range cap(srv.ppr.slots) {
		srv.ppr.slots <- struct{}{}
	}
	const url = "/v1/ppr?source=3&k=5"
	done := make(chan string, 1)
	go func() {
		_, body := getPPR(t, srv, url)
		done <- string(body)
	}()
	for srv.ppr.queries.Value() == 0 { // the request is in the handler
		runtime.Gosched()
	}
	select {
	case got := <-done:
		t.Fatalf("answered with every slot taken: %s", got)
	case <-time.After(50 * time.Millisecond):
	}
	if got := srv.ppr.walks.Value(); got != 0 {
		t.Fatalf("ppr_walks_total %d with every slot taken, want 0", got)
	}
	<-srv.ppr.slots
	ref, _ := pprServer(t, opts)
	if want := body(t, ref, url); <-done != want {
		t.Fatalf("GET %s after waiting for a slot: body differs from an idle server's", url)
	}
	if got := srv.ppr.walks.Value(); got != 100 {
		t.Fatalf("ppr_walks_total %d after the slot was freed, want 100", got)
	}
}

// TestPPRCacheHitsAndTTL pins the LRU behavior: repeats hit, a
// different k is the same key (one cut serves every k), a different
// source set is a different key, and a disabled cache holds nothing. (The name predates the TTL knob's
// removal; entries leave by capacity only.)
func TestPPRCacheHitsAndTTL(t *testing.T) {
	srv, _ := pprServer(t, PPROptions{WalksPerSource: 100})
	_, first := getPPR(t, srv, "/v1/ppr?source=3&k=5")
	_, second := getPPR(t, srv, "/v1/ppr?source=3&k=5")
	if string(first) != string(second) {
		t.Fatal("cache hit body differs from computed body")
	}
	if got := srv.ppr.cacheHits.Value(); got != 1 {
		t.Fatalf("cache hits %d, want 1", got)
	}
	// A different k hits the same cut (what it answers is
	// TestPPREveryKIsAPrefixOfOneCut's).
	getPPR(t, srv, "/v1/ppr?source=3&k=6")
	if got := srv.ppr.cacheHits.Value(); got != 2 {
		t.Fatalf("cache hits after distinct k %d, want 2", got)
	}
	// A different source set is a different key.
	getPPR(t, srv, "/v1/ppr?sources=3,4&k=5")
	if got := srv.ppr.cacheHits.Value(); got != 2 {
		t.Fatalf("cache hits after a distinct source set %d, want still 2", got)
	}

	// Disabled cache: no hits, no growth.
	offSrv, _ := pprServer(t, PPROptions{WalksPerSource: 100, CacheSize: -1})
	getPPR(t, offSrv, "/v1/ppr?source=3&k=5")
	getPPR(t, offSrv, "/v1/ppr?source=3&k=5")
	if offSrv.ppr.cacheHits.Value() != 0 || offSrv.ppr.cache.Len() != 0 {
		t.Fatalf("disabled cache held %d entries, %d hits", offSrv.ppr.cache.Len(), offSrv.ppr.cacheHits.Value())
	}
}

// TestPPRCacheEviction pins the size bound: the LRU never exceeds its
// capacity, evicts cold entries first, and counts evictions.
func TestPPRCacheEviction(t *testing.T) {
	srv, _ := pprServer(t, PPROptions{WalksPerSource: 50, CacheSize: 2})
	getPPR(t, srv, "/v1/ppr?source=1&k=5")
	getPPR(t, srv, "/v1/ppr?source=2&k=5")
	getPPR(t, srv, "/v1/ppr?source=1&k=5") // refresh 1's recency
	getPPR(t, srv, "/v1/ppr?source=3&k=5") // evicts 2, the cold one
	if n := srv.ppr.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	if ev := srv.ppr.cache.evictions.Value(); ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}
	hitsBefore := srv.ppr.cacheHits.Value()
	getPPR(t, srv, "/v1/ppr?source=1&k=5") // still cached (was refreshed)
	getPPR(t, srv, "/v1/ppr?source=2&k=5") // was evicted: miss
	if hits := srv.ppr.cacheHits.Value(); hits != hitsBefore+1 {
		t.Fatalf("hits went %d -> %d, want exactly one more (1 hot, 2 evicted)", hitsBefore, hits)
	}
}

// TestPPRStatsAgreeWithMetrics extends the no-drift guarantee to the
// PPR instruments: the stats body and the Prometheus exposition must
// report the very same values, exactly.
func TestPPRStatsAgreeWithMetrics(t *testing.T) {
	srv, snap := pprServer(t, PPROptions{WalksPerSource: 100})
	getPPR(t, srv, "/v1/ppr?source=3&k=5")
	getPPR(t, srv, "/v1/ppr?source=3&k=5") // cache hit
	getPPR(t, srv, "/v1/ppr?sources=4,5&k=5")
	getPPR(t, srv, "/v1/ppr?source=nope") // 400: counted as a query, no walks

	stats := srv.statsBody(snap)
	if stats.Serving.PPRQueries != 4 {
		t.Fatalf("pprQueries %d, want 4", stats.Serving.PPRQueries)
	}
	if stats.Serving.PPRCacheHits != 1 {
		t.Fatalf("pprCacheHits %d, want 1", stats.Serving.PPRCacheHits)
	}
	// 100 (source 3) + 2×100 (sources 4,5); the hit and the 400 walk
	// nothing.
	if stats.Serving.PPRWalks != 300 {
		t.Fatalf("pprWalks %d, want 300", stats.Serving.PPRWalks)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	exposition := rec.Body.String()
	for _, want := range []string{
		"ppr_requests_total 4",
		"ppr_cache_hits_total 1",
		"ppr_walks_total 300",
		"ppr_truncated_total 0",
		`ppr_request_seconds_count 4`,
		// Observed once per computed request: not by the hit, not by the 400.
		`ppr_slot_wait_seconds_count 2`,
		`ppr_walk_seconds_count 2`,
	} {
		if !containsLine(exposition, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// containsLine reports whether the exposition has a line with the
// exact sample (name and value).
func containsLine(exposition, sample string) bool {
	for len(exposition) > 0 {
		line := exposition
		if i := indexByte(exposition, '\n'); i >= 0 {
			line, exposition = exposition[:i], exposition[i+1:]
		} else {
			exposition = ""
		}
		if line == sample {
			return true
		}
	}
	return false
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TestPPRTopKFacadeMatchesServed checks the embedding hook: PPRTopK
// returns exactly the entries the HTTP endpoint serves, including
// canonicalization of the source list.
func TestPPRTopKFacadeMatchesServed(t *testing.T) {
	opts := PPROptions{WalksPerSource: 300}
	srv, snap := pprServer(t, opts)
	_, body := getPPR(t, srv, "/v1/ppr?sources=9,3,5&k=10")
	var resp api.PPRResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	entries, truncated, err := PPRTopK(snap, []graph.VertexID{5, 9, 3, 5}, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if truncated != resp.Truncated {
		t.Fatalf("truncated %v vs served %v", truncated, resp.Truncated)
	}
	if len(entries) != len(resp.Entries) {
		t.Fatalf("%d entries vs served %d", len(entries), len(resp.Entries))
	}
	for i, e := range entries {
		if e.Vertex != resp.Entries[i].Vertex || e.Score != resp.Entries[i].Score {
			t.Fatalf("entry %d: %+v vs served %+v", i, e, resp.Entries[i])
		}
	}
	// The facade rejects what the endpoint rejects.
	if _, _, err := PPRTopK(snap, nil, 10, opts); err == nil {
		t.Error("empty source set accepted")
	}
	if _, _, err := PPRTopK(snap, []graph.VertexID{1 << 30}, 10, opts); err == nil {
		t.Error("out-of-range source accepted")
	}
}
