package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// decodeLog parses a JSON-lines request log into entries.
func decodeLog(t *testing.T, buf *bytes.Buffer) []obs.Entry {
	t.Helper()
	var out []obs.Entry
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var e obs.Entry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("log line %q: %v", sc.Text(), err)
		}
		out = append(out, e)
	}
	return out
}

// TestRequestIDPropagation pins the trace path: a client-supplied
// X-Request-Id is echoed on the response, written to the router's
// request log, forwarded inside every shard RPC frame, and written to
// each shard's log — so one rid greps the whole fan-out. A request
// without the header gets a generated rid with the same guarantees.
func TestRequestIDPropagation(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 5))
	servers := newShards(t, g, []*serve.Store{store, store})

	var routerLog, shardLog bytes.Buffer
	var mu sync.Mutex
	lockedShardLog := &lockedWriter{mu: &mu, w: &shardLog}
	for _, s := range servers {
		s.SetRequestLog(obs.NewLogger(lockedShardLog))
	}
	clients := make([]*ShardClient, len(servers))
	for i, s := range servers {
		clients[i] = NewShardClient(i, fmt.Sprintf("pipe-%d", i), PipeDialer(s), time.Second)
	}
	rt := New(clients, Options{RequestLog: obs.NewLogger(&routerLog)})

	const rid = "trace-me-42"
	req := httptest.NewRequest(http.MethodGet, "/v1/topk?k=10", nil)
	req.Header.Set(obs.RequestIDHeader, rid)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.RequestIDHeader); got != rid {
		t.Fatalf("response header rid %q, want %q", got, rid)
	}

	rl := decodeLog(t, &routerLog)
	if len(rl) != 1 || rl[0].RID != rid || rl[0].Component != "router" {
		t.Fatalf("router log = %+v, want one entry with rid %q", rl, rid)
	}
	mu.Lock()
	sl := decodeLog(t, &shardLog)
	mu.Unlock()
	if len(sl) != len(servers) {
		t.Fatalf("shard log has %d entries, want one per shard (%d)", len(sl), len(servers))
	}
	for _, e := range sl {
		if e.RID != rid || e.Component != "shard" || e.Op != "topk" || e.K != 10 {
			t.Fatalf("shard log entry = %+v, want rid %q op topk k 10", e, rid)
		}
	}

	// No header: a rid is generated, echoed, and still reaches the
	// shard logs.
	routerLog.Reset()
	mu.Lock()
	shardLog.Reset()
	mu.Unlock()
	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/rank?vertex=7", nil))
	gen := rec.Header().Get(obs.RequestIDHeader)
	if gen == "" {
		t.Fatal("no generated rid on the response")
	}
	rl = decodeLog(t, &routerLog)
	if len(rl) != 1 || rl[0].RID != gen {
		t.Fatalf("router log rid = %+v, want generated %q", rl, gen)
	}
	mu.Lock()
	sl = decodeLog(t, &shardLog)
	mu.Unlock()
	for _, e := range sl {
		if e.RID != gen {
			t.Fatalf("shard log entry rid %q, want generated %q", e.RID, gen)
		}
		if e.Op == "rank" && e.Vertex != "7" {
			t.Fatalf("shard rank log entry = %+v, want vertex 7", e)
		}
	}
}

// lockedWriter serializes writes from the per-shard loggers, which
// share one buffer across goroutine-handled pipe connections.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestRouterStatsAgreeWithMetrics pins the no-drift guarantee on the
// router: /v1/stats and /metrics render the same underlying
// instruments, so their values must match exactly for every counter
// the stats body exposes.
func TestRouterStatsAgreeWithMetrics(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 9))
	rt := newRouter(newShards(t, g, []*serve.Store{store, store, store}), Options{})
	freeze(rt)

	// Two fan-outs (k=9, then the uncovered k=11) and five index hits;
	// three ranks of one vertex: the first owner-routed, the other two
	// answered from its last rank at the fresh index's epoch.
	for _, k := range []int{9, 5, 11, 6, 7, 11, 1} {
		if code, body := get(t, rt, fmt.Sprintf("/v1/topk?k=%d", k)); code != http.StatusOK {
			t.Fatalf("topk status %d: %s", code, body)
		}
	}
	for range 3 {
		if code, body := get(t, rt, "/v1/rank?vertex=7"); code != http.StatusOK {
			t.Fatalf("rank status %d: %s", code, body)
		}
	}
	// The stats request increments the query counter before building
	// its body, so the body already includes itself; /metrics is not a
	// query and scrapes the identical values afterwards.
	code, statsBody := get(t, rt, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var stats api.RouterStatsResponse
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	code, metricsBody := get(t, rt, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	series, err := obs.ParseText([]byte(metricsBody))
	if err != nil {
		t.Fatal(err)
	}

	checks := []struct {
		family string
		want   float64
	}{
		{"router_requests_total", float64(stats.Serving.Queries)},
		{"router_degraded_total", float64(stats.Serving.Degraded)},
		{"router_epoch_fallbacks_total", float64(stats.Serving.EpochFallbacks)},
		{"router_topk_index_hits_total", float64(stats.Serving.TopKIndexHits)},
		{"router_topk_refetches_total", float64(stats.Serving.TopKRefetches)},
		{"router_rank_routed_total", float64(stats.Serving.RankRouted)},
		{"router_rank_index_hits_total", float64(stats.Serving.RankIndexHits)},
		{"router_shard_rpc_retries_total", float64(stats.Serving.Retries)},
		{"router_shard_bytes_sent_total", float64(stats.Network.BytesSent)},
		{"router_shard_bytes_recv_total", float64(stats.Network.BytesRecv)},
		{"router_shards", 3},
	}
	for _, c := range checks {
		if got := obs.FamilySum(series, c.family); got != c.want {
			t.Errorf("%s = %v in /metrics, %v in /v1/stats", c.family, got, c.want)
		}
	}
	if stats.Serving.Queries != 11 {
		t.Errorf("queries = %d, want 11 (7 topk + 3 rank + the stats request)", stats.Serving.Queries)
	}
	if s := stats.Serving; s.TopKIndexHits != 5 || s.TopKRefetches != 2 || s.RankRouted != 1 || s.RankIndexHits != 2 {
		t.Errorf("index hits/refetches/rank routed/rank index hits = %d/%d/%d/%d, want 5/2/1/2",
			s.TopKIndexHits, s.TopKRefetches, s.RankRouted, s.RankIndexHits)
	}
	if got := obs.FamilySum(series, "router_shard_rpc_total"); got <= 0 {
		t.Errorf("router_shard_rpc_total = %v, want > 0", got)
	}
	if got := series[`router_request_seconds_count{endpoint="topk"}`]; got != 7 {
		t.Errorf(`router_request_seconds_count{endpoint="topk"} = %v, want 7`, got)
	}
}

// TestShardStatusReportsSnapshotAge pins the lagging-vs-fresh
// distinction: a shard serving an hour-old snapshot reports its age
// through the status op, so the router's health and stats rows can
// tell a lagging shard (old snapshot) from one that just booted into
// an early epoch (fresh snapshot).
func TestShardStatusReportsSnapshotAge(t *testing.T) {
	g := testGraph(t)
	stale := serve.NewStore()
	snap, err := serve.FromRanks(g, serve.EngineFrogWild, 11, tieRanks(g.NumVertices(), 3), 50)
	if err != nil {
		t.Fatal(err)
	}
	snap.BuiltAt = time.Now().Add(-time.Hour)
	stale.Publish(snap)
	fresh := serve.NewStore()
	publishRanks(t, fresh, g, tieRanks(g.NumVertices(), 3))

	rt := newRouter(newShards(t, g, []*serve.Store{stale, fresh}), Options{})
	code, body := get(t, rt, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d: %s", code, body)
	}
	var stats api.RouterStatsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 2 {
		t.Fatalf("%d shard rows, want 2", len(stats.Shards))
	}
	if age := stats.Shards[0].SnapshotAgeSeconds; age < 3500 {
		t.Errorf("stale shard age = %.1fs, want about an hour", age)
	}
	if age := stats.Shards[1].SnapshotAgeSeconds; age <= 0 || age > 60 {
		t.Errorf("fresh shard age = %.1fs, want small and positive", age)
	}
}

// TestMetricsScrapeUnderSwapsAndDeath scrapes /metrics continuously
// while snapshots swap under every shard and one shard's transport
// flaps dead and alive. Run under -race: the scrape path must never
// race the hot path, and every scrape must stay a parseable
// exposition.
func TestMetricsScrapeUnderSwapsAndDeath(t *testing.T) {
	rt, flaky, store, g := deadCluster(t)
	n := g.NumVertices()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := int64(0); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := serve.FromRanks(g, serve.EngineFrogWild, 11, tieRanks(n, 200+seed), 50)
			if err != nil {
				t.Error(err)
				return
			}
			store.Publish(snap)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			flaky.dead.Store(i%2 == 1)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			code, body := get(t, rt, fmt.Sprintf("/v1/topk?k=%d", 5+i%3))
			if code != http.StatusOK && code != http.StatusServiceUnavailable {
				t.Errorf("query status %d: %s", code, body)
			}
		}
	}()
	for i := 0; i < 40; i++ {
		code, body := get(t, rt, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape status %d", code)
		}
		if _, err := obs.ParseText([]byte(body)); err != nil {
			t.Fatalf("scrape %d not parseable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	flaky.dead.Store(false)
}
