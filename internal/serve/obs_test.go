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
	"repro/internal/graph/pcache"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

// scrape renders srv's /metrics and parses it. A scrape is not a query.
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	series, err := obs.ParseText([]byte(body(t, srv, "/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// TestServingCountersOnMetrics pins what the single-node server counts
// and where: every serving counter is a family on /metrics, including
// the refresher's, which NewService registers on the same registry,
// and the graph_page_cache_* gauges, which read the paged graph's pool.
func TestServingCountersOnMetrics(t *testing.T) {
	srv, refresher, err := NewService(testGraph(t), ServiceConfig{
		Build: testBuildConfig(EngineFrogWild),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refresher.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Every k within maxk is answered from the index; the rank query is not.
	for i := 0; i < 5; i++ {
		body(t, srv, "/v1/topk?k=10")
	}
	body(t, srv, "/v1/rank?vertex=3")
	var stats api.StatsResponse
	if err := json.Unmarshal([]byte(body(t, srv, "/v1/stats")), &stats); err != nil {
		t.Fatal(err)
	}

	// The stats request is a query; the /metrics scrape is not.
	series := scrape(t, srv)
	for _, c := range []struct {
		family string
		want   float64
		why    string
	}{
		{"serve_requests_total", 7, "5 topk + rank + the stats request"},
		{"serve_topk_cache_hits_total", 5, "every k within maxk is a prefix of the index"},
		{"serve_compare_cache_hits_total", 0, "no compare was asked"},
		{"serve_coalesced_total", 0, "nothing ran concurrently"},
		{"refresh_builds_total", 2, "the cold build and the refresh"},
		{"refresh_build_errors_total", 0, "both builds succeeded"},
		{"serve_snapshot_epoch", float64(stats.Epoch), "the epoch /v1/stats names"},
	} {
		if got := obs.FamilySum(series, c.family); got != c.want {
			t.Errorf("%s = %v, want %v (%s)", c.family, got, c.want, c.why)
		}
	}
	if got := series[`serve_request_seconds_count{endpoint="topk"}`]; got != 5 {
		t.Errorf(`serve_request_seconds_count{endpoint="topk"} = %v, want 5`, got)
	}
	if got := obs.FamilySum(series, "refresh_publish_to_visible_seconds"); got < 0 {
		t.Errorf("refresh_publish_to_visible_seconds = %v, want >= 0", got)
	}

	// On a paged graph the graph_page_cache_* families read the pool.
	graphs, base := pagedLayouts(t, powerLaw(t, gen.PowerLawConfig{N: 5000, MeanOutDeg: 8, DegExponent: 2.1, Seed: 5}),
		BuildConfig{Engine: EngineExact, Seed: 11, MaxK: 50}, map[string]float64{"paged": 0})
	paged := serveVariants(map[string]*graph.Graph{"paged": graphs["paged"]}, base, PPROptions{CacheSize: -1})["paged"]
	body(t, paged, "/v1/ppr?source=3&source=700&k=10")
	series = scrape(t, paged)
	pc, ok := graphs["paged"].PageCacheStats()
	if !ok {
		t.Fatal("the paged graph has no page cache")
	}
	misses := obs.FamilySum(series, "graph_page_cache_misses_total")
	evictions := obs.FamilySum(series, "graph_page_cache_evictions_total")
	readBytes := obs.FamilySum(series, "graph_page_cache_read_bytes_total")
	if misses == 0 || evictions == 0 {
		t.Fatalf("page cache misses %v, evictions %v: want both", misses, evictions)
	}
	if readBytes > misses*pcache.PageSize || readBytes <= (misses-1)*pcache.PageSize {
		t.Errorf("read_bytes %v for %v misses of %d-byte pages", readBytes, misses, pcache.PageSize)
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
			t.Errorf("%s = %v on /metrics, the pool reads %v", family, got, want)
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
