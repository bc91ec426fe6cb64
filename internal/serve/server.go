package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pagerank"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// ServerOptions tunes a Server beyond its Store.
type ServerOptions struct {
	// Metrics is the registry /metrics renders from; nil creates a
	// private one (so /metrics always works). NewService shares one
	// registry between server and refresher.
	Metrics *obs.Registry
	// RequestLog, when non-nil, receives one JSON line per request.
	RequestLog *obs.Logger
	// PPR tunes the /v1/ppr endpoint (walk budget, cache); the zero
	// value serves with defaults.
	PPR PPROptions
}

// Server answers the top-k PageRank query over HTTP from whatever
// snapshot its Store currently publishes.
//
// API (all GET, all JSON, every response stamped with the snapshot
// epoch it was answered from):
//
//	/v1/topk?k=20            top-k vertices with scores
//	/v1/rank?vertex=17       one vertex's estimated rank
//	/v1/ppr?source=7&k=20    top-k personalized PageRank of a source
//	                         set (sources=a,b,c for multi-source),
//	                         estimated by request-time walks under a
//	                         bounded budget (see ppr.go)
//	/v1/compare?k=20         accuracy of the served estimate vs exact
//	                         PageRank of its graph (engine=exact is the
//	                         one engine it accepts; computed on demand,
//	                         once per graph)
//	/v1/stats                snapshot provenance and graph stats
//	/metrics                 every serving counter (Prometheus text)
//	/healthz                 200 once a snapshot is published
//
// A /v1/topk with k up to the snapshot's MaxK writes a prefix of the
// bodies rendered when the snapshot was published; a larger k selects
// and renders afresh. Identical concurrent /v1/compare and /v1/ppr
// queries are coalesced (singleflight).
type Server struct {
	store *Store
	// plane is the HTTP front: routing table, request middleware and
	// listener lifecycle, shared with the router (obs.Plane).
	plane *obs.Plane

	// /v1/compare's reference is exact PageRank, which depends on the
	// graph alone: one (graph, ranks) pair outlives refreshes over the
	// same graph, and one flight per graph computes it.
	compareMu      sync.Mutex
	compareGraph   *graph.Graph
	compareRanks   []float64
	compareFlights flightGroup[*graph.Graph, []float64]

	// Serving counters are obs instruments registered on reg, which
	// /metrics renders; no response body repeats them.
	queries     obs.Counter
	cacheHits   obs.Counter
	compareHits obs.Counter
	coalesced   obs.Counter
	reg         *obs.Registry

	// ppr owns the /v1/ppr per-source cache (a source's tally, or a
	// repeated set's cut, per entry), slot gate and instruments (see
	// ppr.go).
	ppr *pprEngine
}

// NewServer builds a server over store.
func NewServer(store *Store, opts ServerOptions) *Server {
	s := &Server{store: store, reg: opts.Metrics}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.reg.RegisterCounter("serve_requests_total",
		"Queries across the /v1 endpoints (method-allowed GETs).", nil, &s.queries)
	s.reg.RegisterCounter("serve_topk_cache_hits_total",
		"Top-k queries answered from the snapshot's rendered top index (k <= maxk).", nil, &s.cacheHits)
	s.reg.RegisterCounter("serve_compare_cache_hits_total",
		"Compare queries that reused a cached reference vector.", nil, &s.compareHits)
	s.reg.RegisterCounter("serve_coalesced_total",
		"Queries that joined an in-flight identical computation.", nil, &s.coalesced)
	s.reg.GaugeFunc("serve_snapshot_epoch",
		"Epoch of the published snapshot (0 before the first publish).", nil, func() float64 {
			return float64(s.epoch())
		})
	s.reg.GaugeFunc("serve_snapshot_age_seconds",
		"Seconds since the published snapshot was built (0 before the first publish).", nil, func() float64 {
			if snap := store.Current(); snap != nil {
				return time.Since(snap.BuiltAt).Seconds()
			}
			return 0
		})
	pageCacheGauge := func(name, help string, pick func(graph.PageCacheStats) float64) {
		s.reg.GaugeFunc(name, help, nil, func() float64 {
			if snap := store.Current(); snap != nil && snap.Graph != nil {
				if st, ok := snap.Graph.PageCacheStats(); ok {
					return pick(st)
				}
			}
			return 0
		})
	}
	pageCacheGauge("graph_page_cache_resident_pages",
		"Pages of CSR adjacency resident in the page cache (0 when fully resident in RAM).",
		func(st graph.PageCacheStats) float64 { return float64(st.ResidentPages) })
	pageCacheGauge("graph_page_cache_pinned_pages",
		"Pages pinned by a page-cache load in flight (reads pin nothing).",
		func(st graph.PageCacheStats) float64 { return float64(st.PinnedPages) })
	pageCacheGauge("graph_page_cache_budget_pages",
		"Page-cache capacity implied by the -graph-mem budget.",
		func(st graph.PageCacheStats) float64 { return float64(st.BudgetPages) })
	pageCacheGauge("graph_page_cache_hits_total",
		"Adjacency page lookups served from a resident page.",
		func(st graph.PageCacheStats) float64 { return float64(st.Hits) })
	pageCacheGauge("graph_page_cache_misses_total",
		"Adjacency page lookups that had to read the page from disk.",
		func(st graph.PageCacheStats) float64 { return float64(st.Misses) })
	pageCacheGauge("graph_page_cache_evictions_total",
		"Pages evicted by the CLOCK sweep to stay under budget.",
		func(st graph.PageCacheStats) float64 { return float64(st.Evictions) })
	pageCacheGauge("graph_page_cache_read_bytes_total",
		"Bytes the page-cache misses read from the graph file.",
		func(st graph.PageCacheStats) float64 { return float64(st.ReadBytes) })
	s.ppr = newPPREngine(opts.PPR, s.reg)
	s.plane = &obs.Plane{
		Component: "serve",
		Registry:  s.reg,
		Log:       opts.RequestLog,
		Queries:   &s.queries,
		Epoch:     s.epoch,
	}
	s.plane.Mount(obs.Routes{
		TopK:    s.handleTopK,
		Rank:    s.handleRank,
		PPR:     s.handlePPR,
		Compare: s.handleCompare,
		Stats:   s.handleStats,
		Healthz: s.handleHealthz,
	})
	return s
}

// Metrics returns the registry /metrics renders from, so embedders
// (the benchmark) can scrape without HTTP.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// ServeHTTP makes *Server itself an http.Handler, so in-process
// drivers (httptest, the benchmark's layer timings) can hit the full
// API without a listener.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.plane.ServeHTTP(w, r)
}

// Snapshot returns the snapshot the server is currently answering
// from (nil before the first publish). Callers use it to see whether
// the service warm-started from disk and which epoch is live.
func (s *Server) Snapshot() *Snapshot { return s.store.Current() }

// Queries returns the total query count across the /v1 endpoints.
func (s *Server) Queries() uint64 { return s.queries.Value() }

// CacheHits returns how many /v1/topk queries were answered from the
// snapshot's rendered top index (k ≤ MaxK).
func (s *Server) CacheHits() uint64 { return s.cacheHits.Value() }

// epoch is the published snapshot's epoch, 0 before the first publish.
func (s *Server) epoch() uint64 {
	if snap := s.store.Current(); snap != nil {
		return snap.Epoch
	}
	return 0
}

// fail writes the api.Error JSON envelope, stamped with the epoch the
// server was serving when the request failed (0 before the first
// publish).
func (s *Server) fail(w http.ResponseWriter, status int, code, format string, args ...any) {
	api.WriteError(w, status, code, s.epoch(), format, args...)
}

// current returns the published snapshot or writes a 503.
func (s *Server) current(w http.ResponseWriter) *Snapshot {
	snap := s.store.Current()
	if snap == nil {
		s.fail(w, http.StatusServiceUnavailable, api.CodeNoSnapshot, "no snapshot published yet")
	}
	return snap
}

// walkable returns the published snapshot if it carries its graph, or
// writes a 503: a graphless snapshot (what ReadSnapshot(r, nil)
// decodes) answers every query but those that read adjacency.
func (s *Server) walkable(w http.ResponseWriter) *Snapshot {
	snap := s.current(w)
	if snap != nil && snap.Graph == nil {
		s.fail(w, http.StatusServiceUnavailable, api.CodeUnavailable, "the snapshot at epoch %d carries no graph", snap.Epoch)
		return nil
	}
	return snap
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.current(w)
	if snap == nil {
		return
	}
	k, err := api.ParsePositiveInt(r.URL.Query().Get("k"), 20)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "bad k: %v", err)
		return
	}
	x := snap.bodies
	if x != nil && snap.indexed(k) {
		s.cacheHits.Inc()
	} else if x, err = api.NewTopKIndex(snap.Epoch, snap.Engine, snap.Seed, snap.TopK(k)); err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	x.WriteBody(w, k, false)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.current(w)
	if snap == nil {
		return
	}
	raw := r.URL.Query().Get("vertex")
	if raw == "" {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "missing vertex parameter")
		return
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "bad vertex: %v", err)
		return
	}
	rank, ok := snap.Rank(graph.VertexID(v))
	if !ok {
		s.fail(w, http.StatusNotFound, api.CodeNotFound, "vertex %d not in graph (n=%d)", v, len(snap.Ranks))
		return
	}
	body, err := json.Marshal(api.RankResponse{
		Epoch: snap.Epoch, Engine: snap.Engine, Vertex: uint32(v), Rank: rank,
	})
	if err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	api.WriteJSON(w, append(body, '\n'))
}

// referenceRanks returns exact PageRank of g, computed on the first
// compare over g and cached until a compare over another graph. A run
// aborted by a storage fault caches nothing. g must not be nil (the
// empty cache would match it): handleCompare reads it via walkable.
func (s *Server) referenceRanks(g *graph.Graph) ([]float64, error) {
	s.compareMu.Lock()
	hit, ranks := g == s.compareGraph, s.compareRanks
	s.compareMu.Unlock()
	if hit {
		s.compareHits.Inc()
		return ranks, nil
	}
	ranks, err, shared := s.compareFlights.Do(g, func() (ranks []float64, err error) {
		// A failed read of a paged graph is an error every waiter of the
		// flight shares, not a panic inside it.
		defer catchStorageFault("compare run", &err)
		res, err := pagerank.Exact(g, pagerank.Options{})
		if err != nil {
			return nil, err
		}
		return res.Rank, nil
	})
	if shared {
		s.coalesced.Inc()
	}
	if err != nil {
		return nil, err
	}
	s.compareMu.Lock()
	s.compareGraph, s.compareRanks = g, ranks
	s.compareMu.Unlock()
	return ranks, nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.walkable(w)
	if snap == nil {
		return
	}
	if e := r.URL.Query().Get("engine"); e != "" && Engine(e) != EngineExact {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "compare engine %q: want %s", e, EngineExact)
		return
	}
	k, err := api.ParsePositiveInt(r.URL.Query().Get("k"), 20)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "bad k: %v", err)
		return
	}
	ref, err := s.referenceRanks(snap.Graph)
	if errors.Is(err, errStorageFault) { // the cause is in the server's log, not the client's body
		s.fail(w, http.StatusServiceUnavailable, api.CodeUnavailable, "compare run aborted by a failed graph read; retry")
		return
	}
	if err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "compare run: %v", err)
		return
	}
	body, err := json.Marshal(api.CompareResponse{
		Epoch:               snap.Epoch,
		Engine:              snap.Engine,
		Against:             EngineExact,
		K:                   k,
		CapturedMass:        topk.CapturedMass(ref, snap.Ranks, k),
		NormalizedMass:      topk.NormalizedCapturedMass(ref, snap.Ranks, k),
		ExactIdentification: topk.ExactIdentification(ref, snap.Ranks, k),
		L1Distance:          topk.L1Distance(ref, snap.Ranks),
	})
	if err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	api.WriteJSON(w, append(body, '\n'))
}

// handleStats answers what is served: the snapshot's provenance and
// its graph's stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.current(w)
	if snap == nil {
		return
	}
	body, err := json.Marshal(api.StatsResponse{
		Epoch:        snap.Epoch,
		Engine:       snap.Engine,
		Seed:         snap.Seed,
		BuiltAt:      snap.BuiltAt,
		BuildSeconds: snap.BuildSeconds,
		MaxK:         snap.MaxK,
		Graph: api.GraphStats{
			Vertices:  snap.Stats.NumVertices,
			Edges:     snap.Stats.NumEdges,
			MinOutDeg: snap.Stats.MinOutDeg,
			MaxOutDeg: snap.Stats.MaxOutDeg,
			MaxInDeg:  snap.Stats.MaxInDeg,
			MeanDeg:   snap.Stats.MeanDeg,
			GiniOut:   snap.Stats.GiniOut,
		},
	})
	if err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	api.WriteJSON(w, append(body, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.store.Current()
	if snap == nil {
		s.fail(w, http.StatusServiceUnavailable, api.CodeNoSnapshot, "no snapshot published yet")
		return
	}
	body, _ := json.Marshal(api.HealthResponse{Status: "ok", Epoch: snap.Epoch})
	api.WriteJSON(w, append(body, '\n'))
}

// Serve listens on addr and serves until ctx is cancelled, then shuts
// down gracefully (in-flight requests get up to 5 seconds to finish).
// It returns nil on a clean ctx-triggered shutdown.
func (s *Server) Serve(ctx context.Context, addr string) error { return s.plane.Serve(ctx, addr) }

// Addr returns the listening address once Serve has bound it ("" before
// that) — handy when addr was ":0".
func (s *Server) Addr() string { return s.plane.Addr() }
