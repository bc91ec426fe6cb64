package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

// TestStatsAgreeWithMetrics pins the no-drift guarantee on the
// single-node server: /v1/stats and /metrics read the same registered
// instruments, so every serving counter the JSON body exposes must
// equal its Prometheus family exactly — including the refresher's
// counters, which NewService registers on the same registry.
func TestStatsAgreeWithMetrics(t *testing.T) {
	srv, refresher, err := NewService(testGraph(t), ServiceConfig{
		Build: testBuildConfig(EngineFrogWild),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refresher.Refresh(); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (int, string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Body.String()
	}
	// Every k within maxk is answered from the index; the rank query is not.
	for i := 0; i < 5; i++ {
		if code, body := get("/v1/topk?k=10"); code != http.StatusOK {
			t.Fatalf("topk status %d: %s", code, body)
		}
	}
	if code, _ := get("/v1/rank?vertex=3"); code != http.StatusOK {
		t.Fatal("rank failed")
	}

	// The stats request increments the query counter before its body
	// is built, so the body includes itself; the /metrics scrape is
	// not a query and renders the identical values afterwards.
	code, statsBody := get("/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var stats api.StatsResponse
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	code, metricsBody := get("/metrics")
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
		{"serve_requests_total", float64(stats.Serving.Queries)},
		{"serve_topk_cache_hits_total", float64(stats.Serving.TopKCacheHits)},
		{"serve_compare_cache_hits_total", float64(stats.Serving.CompareCacheHits)},
		{"serve_coalesced_total", float64(stats.Serving.Coalesced)},
		{"refresh_builds_total", float64(stats.Serving.Refreshes)},
		{"refresh_build_errors_total", float64(stats.Serving.BuildErrors)},
		{"serve_snapshot_epoch", float64(stats.Epoch)},
	}
	for _, c := range checks {
		if got := obs.FamilySum(series, c.family); got != c.want {
			t.Errorf("%s = %v in /metrics, %v in /v1/stats", c.family, got, c.want)
		}
	}
	if stats.Serving.Queries != 7 {
		t.Errorf("queries = %d, want 7 (5 topk + rank + the stats request)", stats.Serving.Queries)
	}
	if stats.Serving.TopKCacheHits != 5 {
		t.Errorf("topk cache hits = %d, want 5 (every k within maxk is a prefix of the index)", stats.Serving.TopKCacheHits)
	}
	if got := series[`serve_request_seconds_count{endpoint="topk"}`]; got != 5 {
		t.Errorf(`serve_request_seconds_count{endpoint="topk"} = %v, want 5`, got)
	}
	if got := obs.FamilySum(series, "refresh_publish_to_visible_seconds"); got < 0 {
		t.Errorf("refresh_publish_to_visible_seconds = %v, want >= 0", got)
	}

	// On a paged graph the pageCache block and the graph_page_cache_*
	// families read the same pool.
	graphs, base := pagedLayouts(t, powerLaw(t, gen.PowerLawConfig{N: 5000, MeanOutDeg: 8, DegExponent: 2.1, Seed: 5}),
		BuildConfig{Engine: EngineExact, Seed: 11, MaxK: 50}, map[string]float64{"paged": 0})
	paged := serveVariants(map[string]*graph.Graph{"paged": graphs["paged"]}, base, PPROptions{CacheSize: -1})["paged"]
	body(t, paged, "/v1/ppr?source=3&source=700&k=10")
	if err := json.Unmarshal([]byte(body(t, paged, "/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if series, err = obs.ParseText([]byte(body(t, paged, "/metrics"))); err != nil {
		t.Fatal(err)
	}
	pc := stats.PageCache
	if pc == nil || pc.Misses == 0 || pc.Evictions == 0 {
		t.Fatalf("pageCache = %+v, want misses and evictions", pc)
	}
	if pc.ReadBytes > pc.Misses*uint64(pc.PageSize) || pc.ReadBytes <= (pc.Misses-1)*uint64(pc.PageSize) {
		t.Errorf("readBytes %d for %d misses of %d-byte pages", pc.ReadBytes, pc.Misses, pc.PageSize)
	}
	for family, want := range map[string]float64{
		"graph_page_cache_hits_total":       float64(pc.Hits),
		"graph_page_cache_misses_total":     float64(pc.Misses),
		"graph_page_cache_evictions_total":  float64(pc.Evictions),
		"graph_page_cache_read_bytes_total": float64(pc.ReadBytes),
		"graph_page_cache_resident_pages":   float64(pc.ResidentPages),
		"graph_page_cache_pinned_pages":     float64(pc.PinnedPages),
		"graph_page_cache_budget_pages":     float64(pc.BudgetPages),
	} {
		if got := obs.FamilySum(series, family); got != want {
			t.Errorf("%s = %v in /metrics, %v in /v1/stats", family, got, want)
		}
	}
}

// TestServeRequestLogCarriesRID checks the single-node request log: one
// JSON line per request with component, rid (client-supplied or
// generated), path, status and the served epoch.
func TestServeRequestLogCarriesRID(t *testing.T) {
	var buf bytes.Buffer
	store := NewStore()
	snap := buildSnap(t, store, EngineFrogWild)
	srv := NewServer(store, ServerOptions{RequestLog: obs.NewLogger(&buf)})

	req := httptest.NewRequest(http.MethodGet, "/v1/topk?k=5", nil)
	req.Header.Set(obs.RequestIDHeader, "serve-rid-1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}

	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	if !sc.Scan() {
		t.Fatal("no log line written")
	}
	var e obs.Entry
	if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
		t.Fatalf("log line %q: %v", sc.Text(), err)
	}
	if e.Component != "serve" || e.RID != "serve-rid-1" || e.Path != "/v1/topk" ||
		e.Status != http.StatusOK || e.Epoch != snap.Epoch {
		t.Fatalf("log entry = %+v", e)
	}
	if sc.Scan() {
		t.Fatalf("unexpected second log line %q", sc.Text())
	}
}

// TestMetricsScrapeDuringSwap scrapes /metrics continuously while
// queries run and the store keeps publishing new snapshots. Run under
// -race: the gauges read the live store and must never race a publish,
// and every scrape must stay a parseable exposition.
func TestMetricsScrapeDuringSwap(t *testing.T) {
	g := testGraph(t)
	store := NewStore()
	buildSnap(t, store, EngineFrogWild)
	srv := NewServer(store, ServerOptions{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := testBuildConfig(EngineFrogWild)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg.Seed = uint64(100 + i)
			snap, err := Build(g, cfg)
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
		for i := 0; i < 200; i++ {
			rec := httptest.NewRecorder()
			url := fmt.Sprintf("/v1/topk?k=%d", 5+i%7)
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("query status %d", rec.Code)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("scrape status %d", rec.Code)
		}
		if _, err := obs.ParseText(rec.Body.Bytes()); err != nil {
			t.Fatalf("scrape %d not parseable: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
