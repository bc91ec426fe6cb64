package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/obs"
	"repro/internal/pagerank"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// testGraph is a small power-law graph shared across tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testBuildConfig keeps engine runs cheap in tests.
func testBuildConfig(engine Engine) BuildConfig {
	return BuildConfig{Engine: engine, Machines: 4, Seed: 11, MaxK: 50}
}

// buildSnap builds and publishes one snapshot.
func buildSnap(t testing.TB, store *Store, engine Engine) *Snapshot {
	t.Helper()
	snap, err := Build(testGraph(t), testBuildConfig(engine))
	if err != nil {
		t.Fatal(err)
	}
	return store.Publish(snap)
}

func TestStorePublishEpochs(t *testing.T) {
	st := NewStore()
	if st.Current() != nil || st.epoch.Load() != 0 {
		t.Fatal("fresh store should be empty at epoch 0")
	}
	a := buildSnap(t, st, EngineFrogWild)
	if a.Epoch != 1 || st.epoch.Load() != 1 || st.Current() != a {
		t.Fatalf("first publish: epoch %d, store epoch %d", a.Epoch, st.epoch.Load())
	}
	b := buildSnap(t, st, EngineFrogWild)
	if b.Epoch != 2 || st.Current() != b {
		t.Fatalf("second publish: epoch %d", b.Epoch)
	}
	if a.Epoch != 1 {
		t.Error("old snapshot's epoch must not change")
	}
}

func TestSnapshotTopKMatchesTopkTop(t *testing.T) {
	snap, err := Build(testGraph(t), testBuildConfig(EngineFrogWild))
	if err != nil {
		t.Fatal(err)
	}
	n := len(snap.Ranks)
	for _, k := range []int{1, 5, 20, 50, 51, 100, n, n + 10} {
		got := snap.TopK(k)
		want := topk.Top(snap.Ranks, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%d) != topk.Top (index MaxK=%d)", k, snap.MaxK)
		}
	}
	if snap.TopK(0) != nil || snap.TopK(-1) != nil {
		t.Error("non-positive k should return nil")
	}
	// The returned slice must be a copy, not a window into the index.
	top := snap.TopK(3)
	top[0].Score = -1
	if snap.Top[0].Score == -1 {
		t.Error("TopK must not alias the precomputed index")
	}
}

func TestSnapshotRank(t *testing.T) {
	snap, err := Build(testGraph(t), testBuildConfig(EngineFrogWild))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := snap.Rank(0); !ok || r != snap.Ranks[0] {
		t.Errorf("Rank(0) = %v, %v", r, ok)
	}
	if _, ok := snap.Rank(uint32(len(snap.Ranks))); ok {
		t.Error("out-of-range vertex should report !ok")
	}
}

func TestFromRanksValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := FromRanks(nil, EngineExact, 0, nil, 10); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := FromRanks(g, EngineExact, 0, make([]float64, 3), 10); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestBuildEngines(t *testing.T) {
	g := testGraph(t)
	for _, engine := range []Engine{EngineFrogWild, EngineExact} {
		snap, err := Build(g, testBuildConfig(engine))
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if len(snap.Ranks) != g.NumVertices() {
			t.Fatalf("%s: %d ranks", engine, len(snap.Ranks))
		}
		var sum float64
		for _, r := range snap.Ranks {
			sum += r
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("%s: ranks sum to %v", engine, sum)
		}
		if snap.Stats.NumVertices != g.NumVertices() {
			t.Errorf("%s: stats not populated", engine)
		}
	}
	// The exact engine must agree with the solver it wraps.
	snap, err := Build(g, testBuildConfig(EngineExact))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Ranks, ref.Rank) {
		t.Error("exact engine ranks differ from pagerank.Exact")
	}
	if _, err := Build(g, BuildConfig{Engine: "nope"}); err == nil {
		t.Error("unknown engine should error")
	}
	if _, err := Build(nil, BuildConfig{}); err == nil {
		t.Error("nil graph should error")
	}
}

func TestParseEngine(t *testing.T) {
	for _, name := range []string{"frogwild", "exact"} {
		if e, err := ParseEngine(name); err != nil || string(e) != name {
			t.Errorf("ParseEngine(%q) = %v, %v", name, e, err)
		}
	}
	for _, name := range []string{"pagerank", "glpr"} {
		if _, err := ParseEngine(name); err == nil {
			t.Errorf("ParseEngine(%q) should error", name)
		}
	}
}

func TestRefresherGenerations(t *testing.T) {
	g := testGraph(t)
	st := NewStore()
	r := NewRefresher(st, EngineBuilder(g, testBuildConfig(EngineFrogWild)), 0)
	a, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if a.Epoch != 1 || b.Epoch != 2 {
		t.Fatalf("epochs %d, %d", a.Epoch, b.Epoch)
	}
	if a.Seed+1 != b.Seed {
		t.Errorf("seeds should advance per generation: %d then %d", a.Seed, b.Seed)
	}
	if reflect.DeepEqual(a.Ranks, b.Ranks) {
		t.Error("reseeded frogwild refresh should produce a different estimate")
	}
	if r.Refreshes() != 2 || r.Errors() != 0 {
		t.Errorf("counters: %d refreshes, %d errors", r.Refreshes(), r.Errors())
	}
	// Same generation seed ⇒ bit-identical rebuild (determinism).
	c, err := EngineBuilder(g, testBuildConfig(EngineFrogWild))(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Ranks, a.Ranks) {
		t.Error("rebuilding generation 0 should be bit-identical")
	}
}

func TestRefresherRunPublishesInitialAndStops(t *testing.T) {
	g := testGraph(t)
	st := NewStore()
	r := NewRefresher(st, EngineBuilder(g, testBuildConfig(EngineFrogWild)), 0)
	if err := r.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if st.epoch.Load() != 1 {
		t.Fatalf("one-shot Run should publish once, epoch = %d", st.epoch.Load())
	}

	ctx, cancel := context.WithCancel(context.Background())
	r2 := NewRefresher(st, EngineBuilder(g, testBuildConfig(EngineFrogWild)), time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- r2.Run(ctx, nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for st.epoch.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run should return ctx.Err(), got %v", err)
	}
	if st.epoch.Load() < 3 {
		t.Errorf("cadenced Run should keep publishing, epoch = %d", st.epoch.Load())
	}
}

func TestRefresherBuildErrorKeepsServing(t *testing.T) {
	g := testGraph(t)
	st := NewStore()
	ok := EngineBuilder(g, testBuildConfig(EngineFrogWild))
	calls := 0
	flaky := func(gen uint64) (*Snapshot, error) {
		calls++
		if calls > 1 {
			return nil, io.ErrUnexpectedEOF
		}
		return ok(gen)
	}
	r := NewRefresher(st, flaky, 0)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	prev := st.Current()
	if _, err := r.Refresh(); err == nil {
		t.Fatal("second refresh should fail")
	}
	if st.Current() != prev {
		t.Error("failed refresh must not unpublish the previous snapshot")
	}
	if r.Errors() != 1 {
		t.Errorf("error counter = %d", r.Errors())
	}
}

// newTestServer publishes one frogwild snapshot and wraps the handler
// in an httptest server.
func newTestServer(t testing.TB) (*Server, *Store, *httptest.Server) {
	t.Helper()
	st := NewStore()
	buildSnap(t, st, EngineFrogWild)
	srv := NewServer(st, ServerOptions{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, st, ts
}

// getJSON fetches url and decodes the JSON body into out, returning the
// status code.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
	}
	return resp.StatusCode
}

func TestServerTopKBitIdentical(t *testing.T) {
	_, st, ts := newTestServer(t)
	snap := st.Current()
	for _, k := range []int{1, 20, 50, 200} {
		var got api.TopKResponse
		if code := getJSON(t, ts.URL+"/v1/topk?k="+strconv.Itoa(k), &got); code != http.StatusOK {
			t.Fatalf("k=%d: status %d", k, code)
		}
		want := topk.Top(snap.Ranks, k)
		if got.Epoch != snap.Epoch || got.Engine != snap.Engine || got.K != len(want) {
			t.Fatalf("k=%d: header fields %+v", k, got)
		}
		if len(got.Entries) != len(want) {
			t.Fatalf("k=%d: %d entries, want %d", k, len(got.Entries), len(want))
		}
		for i, e := range got.Entries {
			if e.Vertex != want[i].Vertex || e.Score != want[i].Score {
				t.Fatalf("k=%d entry %d: got %+v want %+v (must be bit-identical)", k, i, e, want[i])
			}
		}
	}
}

func TestServerTopKDefaultsAndErrors(t *testing.T) {
	_, _, ts := newTestServer(t)
	var got api.TopKResponse
	if code := getJSON(t, ts.URL+"/v1/topk", &got); code != http.StatusOK {
		t.Fatalf("default k: status %d", code)
	}
	if got.K != 20 || len(got.Entries) != 20 {
		t.Errorf("default k should be 20, got %d", got.K)
	}
	for _, bad := range []string{"k=0", "k=-3", "k=frog"} {
		if code := getJSON(t, ts.URL+"/v1/topk?"+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
	// k above maxk is selected afresh, clamped to the graph size.
	var huge api.TopKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=999999", &huge); code != http.StatusOK {
		t.Fatalf("huge k: status %d", code)
	}
	if huge.K != 2000 || len(huge.Entries) != 2000 {
		t.Errorf("huge k should clamp to n=2000, got %d", huge.K)
	}
}

func TestServerTopKCacheAndInvalidation(t *testing.T) {
	srv, st, ts := newTestServer(t)
	var first api.TopKResponse
	getJSON(t, ts.URL+"/v1/topk?k=7", &first)
	hits := srv.CacheHits()
	var second api.TopKResponse
	getJSON(t, ts.URL+"/v1/topk?k=7", &second)
	if srv.CacheHits() != hits+1 {
		t.Errorf("a k within maxk should be answered from the index (hits %d -> %d)", hits, srv.CacheHits())
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated response differs")
	}

	buildSnap(t, st, EngineExact) // swap epochs
	var third api.TopKResponse
	getJSON(t, ts.URL+"/v1/topk?k=7", &third)
	if third.Epoch != 2 || third.Engine != EngineExact {
		t.Errorf("after swap the new epoch must be served, got %+v", third)
	}
}

func TestServerRank(t *testing.T) {
	_, st, ts := newTestServer(t)
	snap := st.Current()
	var got api.RankResponse
	if code := getJSON(t, ts.URL+"/v1/rank?vertex=17", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Vertex != 17 || got.Rank != snap.Ranks[17] || got.Epoch != snap.Epoch {
		t.Errorf("rank response %+v", got)
	}
	if code := getJSON(t, ts.URL+"/v1/rank", nil); code != http.StatusBadRequest {
		t.Errorf("missing vertex: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rank?vertex=x", nil); code != http.StatusBadRequest {
		t.Errorf("bad vertex: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rank?vertex=999999", nil); code != http.StatusNotFound {
		t.Errorf("out-of-range vertex: status %d", code)
	}
}

func TestServerCompare(t *testing.T) {
	srv, st, ts := newTestServer(t)
	snap := st.Current()
	var got api.CompareResponse
	if code := getJSON(t, ts.URL+"/v1/compare?engine=exact&k=20", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Epoch != snap.Epoch || got.Against != EngineExact || got.K != 20 {
		t.Fatalf("compare response %+v", got)
	}
	if got.NormalizedMass <= 0 || got.NormalizedMass > 1+1e-12 {
		t.Errorf("normalized mass %v out of (0,1]", got.NormalizedMass)
	}
	if got.ExactIdentification < 0 || got.ExactIdentification > 1 {
		t.Errorf("identification %v out of [0,1]", got.ExactIdentification)
	}
	// Verify against a direct computation on the snapshot.
	ref, err := pagerank.Exact(snap.Graph, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := topk.NormalizedCapturedMass(ref.Rank, snap.Ranks, 20); got.NormalizedMass != want {
		t.Errorf("normalized mass %v, want %v", got.NormalizedMass, want)
	}

	compareHits := func() uint64 {
		var stats api.StatsResponse
		getJSON(t, ts.URL+"/v1/stats", &stats)
		return stats.Serving.CompareCacheHits
	}
	hits := compareHits()
	getJSON(t, ts.URL+"/v1/compare?engine=exact&k=50", nil)
	if compareHits() != hits+1 {
		t.Error("second compare against the same engine should reuse the cached reference vector")
	}
	if srv.CacheHits() != 0 {
		t.Error("compare cache reuse must not count as a topk index hit")
	}
	if code := getJSON(t, ts.URL+"/v1/compare?engine=quantum", nil); code != http.StatusBadRequest {
		t.Errorf("unknown engine: status %d", code)
	}
	// exact is the one reference: no engine means it, any other is refused by name.
	if a, b := body(t, srv, "/v1/compare?k=20"), body(t, srv, "/v1/compare?engine=exact&k=20"); a != b {
		t.Errorf("compare without an engine answered %s, with engine=exact %s", a, b)
	}
	var refused api.Error
	if code := getJSON(t, ts.URL+"/v1/compare?engine=glpr", &refused); code != http.StatusBadRequest || !strings.Contains(refused.Message, "exact") {
		t.Errorf("engine=glpr: status %d, %+v; want a 400 naming exact", code, refused)
	}
}

// TestCompareReferenceOutlivesRefresh: exact PageRank depends on the
// graph alone, so /v1/compare's reference outlives a refresh over the
// same graph. The next epoch's compare counts a cache hit on
// serve_compare_cache_hits_total and reads no adjacency (with the next
// read armed to fail, a rerun of pagerank.Exact would answer 503); a
// snapshot over another *graph.Graph misses and replaces the pair.
func TestCompareReferenceOutlivesRefresh(t *testing.T) {
	_, exact := pprServer(t, PPROptions{})
	first, pager := faultySnapshot(t, exact)
	g := first.Graph
	st := NewStore()
	srv := NewServer(st, ServerOptions{})
	hits := func() float64 {
		series, err := obs.ParseText([]byte(body(t, srv, "/metrics")))
		if err != nil {
			t.Fatal(err)
		}
		return obs.FamilySum(series, "serve_compare_cache_hits_total")
	}
	compare := func() api.CompareResponse {
		t.Helper()
		var got api.CompareResponse
		if err := json.Unmarshal([]byte(body(t, srv, "/v1/compare?k=20")), &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	st.Publish(first)
	compare()
	if hits() != 0 {
		t.Fatal("the first compare over a graph must compute, not hit")
	}
	next, err := Build(g, testBuildConfig(EngineFrogWild))
	if err != nil {
		t.Fatal(err)
	}
	st.Publish(next)
	pager.Arm(1)
	got := compare()
	pager.Arm(0)
	if hits() != 1 {
		t.Errorf("compare after a refresh over the same graph: %v cache hits, want 1", hits())
	}
	want := topk.NormalizedCapturedMass(exact.Ranks, next.Ranks, 20)
	if got.Epoch != 2 || got.Engine != EngineFrogWild || got.Against != EngineExact || got.NormalizedMass != want {
		t.Errorf("compare at epoch 2 = %+v, want normalized mass %v against exact", got, want)
	}

	other := buildSnap(t, st, EngineFrogWild)
	if other.Graph == g {
		t.Fatal("buildSnap reused the graph")
	}
	if got := compare(); got.Epoch != 3 || hits() != 1 {
		t.Errorf("compare over another graph: epoch %d, %v cache hits; want epoch 3 and a miss", got.Epoch, hits())
	}
	if srv.compareGraph != other.Graph {
		t.Error("a compare over another graph must replace the cached pair")
	}

	// A graphless snapshot (a shard decodes one) must never match the
	// empty cache; the exact run it starts instead cannot succeed.
	empty := NewServer(NewStore(), ServerOptions{})
	func() {
		defer func() { _ = recover() }()
		if ranks, err := empty.referenceRanks(nil); err == nil {
			t.Errorf("a nil graph's reference = %d ranks, want an error", len(ranks))
		}
	}()
	if empty.compareHits.Value() != 0 {
		t.Error("a nil graph matched the empty compare cache")
	}
}

func TestServerStatsAndHealthz(t *testing.T) {
	st := NewStore()
	srv := NewServer(st, ServerOptions{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/v1/stats", nil); code != http.StatusServiceUnavailable {
		t.Errorf("empty store stats: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty store healthz: status %d", resp.StatusCode)
	}

	snap := buildSnap(t, st, EngineFrogWild)
	var got api.StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &got); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if got.Epoch != snap.Epoch || got.Engine != EngineFrogWild || got.MaxK != snap.MaxK {
		t.Errorf("stats %+v", got)
	}
	if got.Graph.Vertices != snap.Stats.NumVertices || got.Graph.Edges != snap.Stats.NumEdges {
		t.Errorf("graph stats %+v", got.Graph)
	}
	if got.Serving.Queries == 0 {
		t.Error("queries counter should count this request")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after publish: status %d", resp.StatusCode)
	}
}

func TestServerMethodNotAllowed(t *testing.T) {
	_, _, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/topk", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	st := NewStore()
	buildSnap(t, st, EngineFrogWild)
	srv := NewServer(st, ServerOptions{})
	if srv.Addr() != "" {
		t.Error("Addr should be empty before Serve binds")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, "127.0.0.1:0") }()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("server never bound")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown should return nil, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown timed out")
	}
}

// TestServiceServesTopKAndShutsDown runs a service end to end with the
// default top index: its snapshot's answer is bit-identical to topk.Top
// over its own scores, the bound server returns that answer over HTTP,
// and Serve shuts down cleanly on cancel.
func TestServiceServesTopKAndShutsDown(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := NewService(g, ServiceConfig{
		Build: BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	for _, k := range []int{1, 20, 150} {
		if !reflect.DeepEqual(snap.TopK(k), topk.Top(snap.Ranks, k)) {
			t.Fatalf("snapshot TopK(%d) differs from topk.Top", k)
		}
	}
	if snap.Engine != EngineFrogWild || snap.Stats.NumVertices != g.NumVertices() {
		t.Errorf("snapshot provenance: engine %s, %d vertices", snap.Engine, snap.Stats.NumVertices)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, "127.0.0.1:0") }()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Addr() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if srv.Addr() == "" {
		t.Fatal("server never bound")
	}
	var got api.TopKResponse
	if code := getJSON(t, "http://"+srv.Addr()+"/v1/topk?k=20", &got); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	want := snap.TopK(20)
	if got.Epoch != snap.Epoch || len(got.Entries) != len(want) {
		t.Fatalf("served topk: epoch %d, %d entries; want epoch %d, %d entries",
			got.Epoch, len(got.Entries), snap.Epoch, len(want))
	}
	for i, e := range got.Entries {
		if e.Vertex != want[i].Vertex || e.Score != want[i].Score {
			t.Fatalf("served entry %d = %+v, want %+v", i, e, want[i])
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve should shut down cleanly, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}

func TestNewServiceInitialSnapshot(t *testing.T) {
	g := testGraph(t)
	srv, refresher, err := NewService(g, ServiceConfig{Build: testBuildConfig(EngineFrogWild)})
	if err != nil {
		t.Fatal(err)
	}
	if refresher.Refreshes() != 1 {
		t.Errorf("NewService should publish the initial snapshot, refreshes = %d", refresher.Refreshes())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var got api.TopKResponse
	if code := getJSON(t, ts.URL+"/v1/topk?k=5", &got); code != http.StatusOK || got.Epoch != 1 {
		t.Errorf("service topk: code %d, %+v", code, got)
	}

	// A failing initial build surfaces immediately.
	if _, _, err := NewService(g, ServiceConfig{Build: BuildConfig{Engine: "bogus"}}); err == nil {
		t.Error("bad engine should fail the initial build")
	}
}
