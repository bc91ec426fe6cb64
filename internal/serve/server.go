package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// ServerOptions tunes a Server beyond its Store.
type ServerOptions struct {
	// Compare is the BuildConfig template for /v1/compare runs; the
	// query's engine overrides its Engine and the current snapshot's
	// seed replaces its Seed (so a comparison is deterministic per
	// epoch). Zero value means engine defaults.
	Compare BuildConfig
	// Refresher, when set, contributes refresh counters to /v1/stats.
	Refresher *Refresher
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
//	/v1/compare?engine=exact&k=20
//	                         accuracy of the served estimate vs another
//	                         engine run on the same graph (computed on
//	                         demand, cached per epoch)
//	/v1/stats                snapshot provenance, graph stats, serving
//	                         counters
//	/healthz                 200 once a snapshot is published
//
// A /v1/topk with k up to the snapshot's MaxK writes a prefix of the
// bodies rendered when the snapshot was published; a larger k selects
// and renders afresh. Identical concurrent /v1/compare and /v1/ppr
// queries are coalesced (singleflight).
type Server struct {
	store *Store
	opts  ServerOptions
	// plane is the HTTP front: routing table, request middleware and
	// listener lifecycle, shared with the router (obs.Plane).
	plane *obs.Plane

	// compare runs are the expensive queries: they get a cache (per
	// epoch+engine) and a flight group.
	compareMu      sync.Mutex
	compareEpoch   uint64
	compareCache   map[Engine][]float64
	compareFlights flightGroup[string, []float64]

	// Serving counters are obs instruments registered on reg, so
	// /v1/stats (which reads them directly) and /metrics (which renders
	// the registry) are two views over the same values by construction.
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
	s := &Server{store: store, opts: opts, reg: opts.Metrics}
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
			if snap := store.Current(); snap != nil {
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

// referenceRanks computes (or fetches the cached) comparison vector for
// the snapshot's graph and epoch.
func (s *Server) referenceRanks(snap *Snapshot, engine Engine) ([]float64, error) {
	s.compareMu.Lock()
	if s.compareEpoch == snap.Epoch {
		if ranks, ok := s.compareCache[engine]; ok {
			s.compareMu.Unlock()
			s.compareHits.Inc()
			return ranks, nil
		}
	}
	s.compareMu.Unlock()

	key := fmt.Sprintf("%d/%s", snap.Epoch, engine)
	ranks, err, shared := s.compareFlights.Do(key, func() (ranks []float64, err error) {
		// A failed read of a paged graph is an error every waiter of the
		// flight shares, not a panic inside it.
		defer catchStorageFault("compare run", &err)
		cfg := s.opts.Compare
		if engine != cfg.Engine {
			// The template's tuning knobs belong to the serving
			// engine; a different reference engine runs with its own
			// defaults (e.g. glpr to tolerance, not the serving
			// engine's truncated iteration budget). Infrastructure
			// knobs (machines, workers, teleport) stay shared.
			cfg.Walkers, cfg.Iterations, cfg.PS = 0, 0, 0
		}
		cfg.Engine = engine
		cfg.Seed = snap.Seed
		cfg = cfg.withDefaults(snap.Graph.NumVertices())
		return computeRanks(snap.Graph, cfg)
	})
	if shared {
		s.coalesced.Inc()
	}
	if err != nil {
		return nil, err
	}
	s.compareMu.Lock()
	if s.compareEpoch != snap.Epoch {
		if snap.Epoch > s.compareEpoch {
			s.compareEpoch = snap.Epoch
			s.compareCache = map[Engine][]float64{engine: ranks}
		}
	} else {
		if s.compareCache == nil {
			s.compareCache = make(map[Engine][]float64)
		}
		s.compareCache[engine] = ranks
	}
	s.compareMu.Unlock()
	return ranks, nil
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.current(w)
	if snap == nil {
		return
	}
	engine, err := ParseEngine(valueOr(r.URL.Query().Get("engine"), string(EngineExact)))
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	k, err := api.ParsePositiveInt(r.URL.Query().Get("k"), 20)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "bad k: %v", err)
		return
	}
	ref, err := s.referenceRanks(snap, engine)
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
		Against:             engine,
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

// statsBody assembles the /v1/stats response for snap.
func (s *Server) statsBody(snap *Snapshot) api.StatsResponse {
	serving := api.ServeStats{
		Queries:           s.queries.Value(),
		TopKCacheHits:     s.cacheHits.Value(),
		CompareCacheHits:  s.compareHits.Value(),
		Coalesced:         s.coalesced.Value(),
		PPRQueries:        s.ppr.queries.Value(),
		PPRCacheHits:      s.ppr.cacheHits.Value(),
		PPRWalks:          s.ppr.walks.Value(),
		PPRWalkSteps:      s.ppr.steps.Value(),
		PPRPageLocalSteps: s.ppr.local.Value(),
		PPRWalkWaits:      s.ppr.waits.Value(),
	}
	if ref := s.opts.Refresher; ref != nil {
		serving.Refreshes = ref.Refreshes()
		serving.BuildErrors = ref.Errors()
	}
	var pc *api.PageCacheStats
	if st, ok := snap.Graph.PageCacheStats(); ok {
		pc = &api.PageCacheStats{
			PageSize:      int64(st.PageSize),
			BudgetBytes:   st.BudgetBytes,
			BudgetPages:   int64(st.BudgetPages),
			ResidentPages: int64(st.ResidentPages),
			PinnedPages:   int64(st.PinnedPages),
			Hits:          st.Hits,
			Misses:        st.Misses,
			Evictions:     st.Evictions,
			ReadBytes:     st.ReadBytes,
		}
	}
	return api.StatsResponse{
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
		Serving:   serving,
		PageCache: pc,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, _ string) {
	snap := s.current(w)
	if snap == nil {
		return
	}
	body, err := json.Marshal(s.statsBody(snap))
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

// valueOr returns raw unless it is empty.
func valueOr(raw, def string) string {
	if raw == "" {
		return def
	}
	return raw
}
