package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// maxCachedK bounds the top index and maxCachedRank the per-vertex rank
// entries: an adversarial parameter sweep cannot grow them without
// limit.
const (
	maxCachedK    = 4096
	maxCachedRank = 1 << 16
)

// freshWindow is how long the router's partial copy answers without
// asking the shards again: the top index after the fan-out that
// confirmed it, a vertex's last rank at that index's epoch, and the last
// status probe. It is well under one snapshot build, so the staleness it
// admits is less than the refresh skew between shards that rule 2
// already serves.
const freshWindow = 100 * time.Millisecond

// topIndex is the router's copy of the cluster's merged top list at one
// epoch: the complete consistentTopK answer for the largest k asked so
// far (up to maxCachedK), rendered once as /v1/topk bodies. The order is
// total, so every shorter top-k of that epoch is a prefix of it. It is
// the fast path while fresh and the degraded fallback once the cluster
// cannot confirm anything newer.
type topIndex struct {
	epoch  uint64
	bodies *api.TopKIndex
	// k is what the shards were asked for; fewer rows than that means
	// the index holds every vertex of the graph.
	k int
	// confirmed is the start of the fan-out every shard answered at
	// resp.Epoch; the zero time marks an index whose freshness has ended.
	confirmed time.Time
}

// fresh reports whether every shard confirmed the index at most
// freshWindow before now, with no contrary reply seen since.
func (x topIndex) fresh(now time.Time) bool {
	return !x.confirmed.IsZero() && now.Sub(x.confirmed) <= freshWindow
}

// covers reports whether the top-k at the index's epoch is a prefix of it.
func (x topIndex) covers(k int) bool {
	return x.k > 0 && (k <= x.k || x.bodies.Len() < x.k)
}

// bounded cuts an index fetched for a k beyond maxCachedK down to the
// bound, letting go of the longer list.
func (x topIndex) bounded() topIndex {
	if x.k > maxCachedK {
		x.k = maxCachedK
		x.bodies = x.bodies.Prefix(maxCachedK)
	}
	return x
}

// clusterView is one status probe's reading of the cluster, shared by
// stats and healthz: per-shard rows, the oldest epoch among live shards
// (the consistent serving floor), the engine and seed they serve, and
// whether every shard is live and at the freshest epoch.
type clusterView struct {
	rows     []api.ShardStatus
	minEpoch uint64
	engine   api.Engine
	seed     uint64
	healthy  bool
	// at is the start of the probe and contrary the router's count of
	// contrary replies just before it.
	at       time.Time
	contrary uint64
}

// fresh reports whether stats may answer from the view: it is at most
// freshWindow old and no shard reply has contradicted anything since the
// probe began, the probe's own replies included.
func (c clusterView) fresh(now time.Time, contrary uint64) bool {
	return !c.at.IsZero() && c.contrary == contrary && now.Sub(c.at) <= freshWindow
}

// Options tunes a Router.
type Options struct {
	// Timeout bounds each per-shard RPC (0 selects 2s). A query's worst
	// case is 2x this (retry) plus one epoch-fallback round.
	Timeout time.Duration
	// Metrics is the registry /metrics renders from; nil creates a
	// private one. The router's counters and every shard client's
	// instruments are registered on it.
	Metrics *obs.Registry
	// RequestLog, when non-nil, receives one JSON line per routed
	// request, carrying the request id that is also forwarded to the
	// shards.
	RequestLog *obs.Logger
}

// Router is the HTTP front of a shard cluster. It serves the same /v1
// query API as the single-node server — a healthy sharded top-k response
// is byte-identical to the single-node body for the same snapshot epoch
// — and holds no graph. It is partially synchronized with its shards:
// what a shard says is immutable per epoch, so the router keeps the
// merged top list of the epoch it last confirmed (topIndex), each
// vertex's last exact rank and the last status probe (clusterView), and
// while they are fresh answers /v1/topk, /v1/rank at the index's epoch
// and /v1/stats from them without an RPC. Ownership is arithmetic — the
// client at position v % len(clients) owns vertex v — so a rank the copy
// cannot answer asks that shard alone, and clients must be in shard-id
// order. /healthz always asks every shard. Nothing runs in the
// background: the copy is revalidated on the request path when it has
// expired.
//
// Failure semantics, in order of preference:
//
//  1. Exact at an epoch every shard confirmed at most 100 ms ago, and
//     never older than an epoch the router has since seen in any shard
//     reply: a failed RPC or a reply at another epoch on any path (an
//     owner-routed rank, stats, healthz, a refetch) ends the freshness
//     of the index, of the ranks at its epoch and of the stats view at
//     once, and the next top-k, rank or stats asks the shards.
//  2. Shards straddle a refresh: the fan-out re-runs pinned to the
//     oldest current epoch (every shard retains its previous snapshot,
//     so the laggard's epoch is still answerable cluster-wide). The
//     answer is exact for that older epoch; it is not kept as fresh, so
//     the cluster is asked again until it agrees.
//  3. A shard is unreachable (after its timeout and retry) or the
//     pinned epoch is gone: the index answers every k up to the largest
//     asked so far, and the last exact rank of the vertex answers
//     /v1/rank, marked "degraded": true at their (stale) epoch. Top-k,
//     rank and stats notice a dead shard when the window ends, at the
//     next healthz, or at the next rank the copy does not answer,
//     whichever is first.
//  4. Nothing kept covers the query: 503 with the shared error
//     envelope, code "unavailable".
type Router struct {
	clients []*ShardClient
	timeout time.Duration
	// plane is the HTTP front: routing table, request middleware and
	// listener lifecycle, shared with the single-node server.
	plane *obs.Plane

	// Counters are obs instruments registered on reg, which /metrics
	// renders; no response body repeats them.
	queries        obs.Counter
	degraded       obs.Counter
	epochFallbacks obs.Counter
	pprUnsupported obs.Counter
	indexHits      obs.Counter
	refetches      obs.Counter
	rankRouted     obs.Counter
	rankIndexHits  obs.Counter
	reg            *obs.Registry

	// now is time.Now outside tests, which drive the freshness window
	// through it.
	now func() time.Time

	// mu guards the partial copy of shard state. contrary counts the
	// shard replies that contradicted top, so a refetch or probe that
	// overlapped one does not store its result as fresh. lastRank holds
	// each vertex's last exact /v1/rank answer: the answer while top is
	// fresh at its epoch, the degraded fallback while its owner is
	// unreachable; it is bounded by maxCachedRank. status is the last
	// probe.
	mu       sync.Mutex
	top      topIndex
	contrary uint64
	lastRank map[uint32]api.RankResponse
	status   clusterView
}

// New builds a router over the given shard clients.
func New(clients []*ShardClient, opts Options) *Router {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	rt := &Router{
		clients:  clients,
		timeout:  timeout,
		now:      time.Now,
		lastRank: make(map[uint32]api.RankResponse),
		reg:      opts.Metrics,
	}
	if rt.reg == nil {
		rt.reg = obs.NewRegistry()
	}
	rt.reg.RegisterCounter("router_requests_total",
		"Queries routed across the /v1 endpoints (method-allowed GETs).", nil, &rt.queries)
	rt.reg.RegisterCounter("router_degraded_total",
		"Responses served stale from the top index or a vertex's last rank because the cluster had no fresh exact answer.", nil, &rt.degraded)
	rt.reg.RegisterCounter("router_epoch_fallbacks_total",
		"Queries re-issued pinned to an older epoch because shards straddled a refresh.", nil, &rt.epochFallbacks)
	rt.reg.RegisterCounter("router_ppr_unsupported_total",
		"PPR queries refused with 501 unsupported (the router holds no graph to walk).", nil, &rt.pprUnsupported)
	rt.reg.RegisterCounter("router_topk_index_hits_total",
		"Top-k queries answered exact from the fresh top index, with no shard RPC.", nil, &rt.indexHits)
	rt.reg.RegisterCounter("router_topk_refetches_total",
		"Top-k fan-outs to every shard because the index was missing, too short, expired or contradicted.", nil, &rt.refetches)
	rt.reg.RegisterCounter("router_rank_routed_total",
		"Rank queries answered by one RPC to the vertex's owner alone.", nil, &rt.rankRouted)
	rt.reg.RegisterCounter("router_rank_index_hits_total",
		"Rank queries answered exact from the vertex's last rank at the fresh top index's epoch, with no shard RPC.", nil, &rt.rankIndexHits)
	rt.reg.GaugeFunc("router_shards",
		"Number of shards this router fans out to.", nil, func() float64 {
			return float64(len(clients))
		})
	for _, c := range clients {
		c.Instrument(rt.reg)
	}
	rt.plane = &obs.Plane{
		Component:  "router",
		Registry:   rt.reg,
		Log:        opts.RequestLog,
		Queries:    &rt.queries,
		ForwardsID: true,
		Shards:     len(clients),
	}
	rt.plane.Mount(obs.Routes{
		TopK:    rt.handleTopK,
		Rank:    rt.handleRank,
		PPR:     rt.handlePPR,
		Compare: rt.handleCompare,
		Stats:   rt.handleStats,
		Healthz: rt.handleHealthz,
	})
	return rt
}

// Metrics returns the registry /metrics renders from, so embedders
// (the benchmark) can scrape without HTTP.
func (rt *Router) Metrics() *obs.Registry { return rt.reg }

// ServeHTTP implements http.Handler, so tests and the benchmark can
// drive the router in-process exactly like the single-node server.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.plane.ServeHTTP(w, r)
}

// Queries returns the total routed query count.
func (rt *Router) Queries() uint64 { return rt.queries.Value() }

// Degraded returns how many responses were served stale, marked
// degraded, because the cluster could not produce a fresh exact answer.
func (rt *Router) Degraded() uint64 { return rt.degraded.Value() }

// EpochFallbacks returns how many queries re-ran pinned to an older
// epoch because the shards straddled a refresh.
func (rt *Router) EpochFallbacks() uint64 { return rt.epochFallbacks.Value() }

// Retries returns the total per-shard RPC retries after transport
// errors, summed across all clients.
func (rt *Router) Retries() uint64 {
	var total uint64
	for _, c := range rt.clients {
		total += c.Retries()
	}
	return total
}

// NetworkStats is the router's measured wire traffic, the quantity
// the paper's inter-machine claims are about: real bytes on a real
// wire, per query.
type NetworkStats struct {
	// Queries is the number of routed queries the bytes are averaged
	// over.
	Queries uint64
	// BytesSent / BytesRecv are totals across all shard connections
	// (requests out, partial results back).
	BytesSent, BytesRecv int64
	// BytesPerQuery is (BytesSent+BytesRecv)/Queries.
	BytesPerQuery float64
}

// NetworkStats reports measured wire traffic across all shard
// connections, averaged per routed query.
func (rt *Router) NetworkStats() NetworkStats {
	var ns NetworkStats
	ns.Queries = rt.queries.Value()
	for _, c := range rt.clients {
		ns.BytesSent += c.BytesSent()
		ns.BytesRecv += c.BytesRecv()
	}
	if ns.Queries > 0 {
		ns.BytesPerQuery = float64(ns.BytesSent+ns.BytesRecv) / float64(ns.Queries)
	}
	return ns
}

// reply writes a marshaled JSON body.
func (rt *Router) reply(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, 0, "%v", err)
		return
	}
	api.WriteJSON(w, append(body, '\n'))
}

// shardResult pairs one shard's answer with its transport error.
type shardResult struct {
	resp response
	err  error
}

// ok reports a usable answer (transport succeeded, shard raised no
// error code).
func (r shardResult) ok() bool { return r.err == nil && r.resp.Code == "" }

// fanout sends req to every shard concurrently and collects all
// answers, indexed by shard position.
func (rt *Router) fanout(req *request) []shardResult {
	results := make([]shardResult, len(rt.clients))
	var wg sync.WaitGroup
	for i, c := range rt.clients {
		wg.Add(1)
		go func(i int, c *ShardClient) {
			defer wg.Done()
			resp, err := c.call(req)
			results[i] = shardResult{resp: resp, err: err}
		}(i, c)
	}
	wg.Wait()
	return results
}

// failure describes a result that is not ok: its transport error, or
// the error code the shard raised.
func (r shardResult) failure() error {
	if r.err != nil {
		return r.err
	}
	return fmt.Errorf("%s: %s", r.resp.Code, r.resp.Err)
}

// shardErr summarizes the first failed result for error bodies.
func shardErr(results []shardResult) error {
	for i, r := range results {
		if r.err != nil {
			return r.err
		}
		if r.resp.Code != "" {
			return fmt.Errorf("shard %d: %w", i, r.failure())
		}
	}
	return errors.New("no failure")
}

// consistentTopK gathers partial top-k lists at one consistent epoch,
// re-issuing pinned queries when shards straddle a refresh. It returns
// the merged exact answer as an unconfirmed index and whether the shards
// agreed on its epoch unprompted, or an error when any shard cannot
// contribute.
func (rt *Router) consistentTopK(k int, rid string) (x topIndex, agreed bool, err error) {
	results := rt.fanout(&request{V: api.Version, Op: opTopK, K: k, Rid: rid})
	for _, r := range results {
		if !r.ok() {
			return topIndex{}, false, shardErr(results)
		}
	}
	// Epoch agreement: serve the oldest current epoch, so a refresh
	// rolling across the cluster never produces a Frankenstein merge of
	// two estimates.
	target := results[0].resp.Epoch
	mixed := false
	for _, r := range results[1:] {
		if r.resp.Epoch != target {
			mixed = true
			if r.resp.Epoch < target {
				target = r.resp.Epoch
			}
		}
	}
	if mixed {
		rt.epochFallbacks.Inc()
		pinned := &request{V: api.Version, Op: opTopK, K: k, Epoch: target, Rid: rid}
		for i := range results {
			if results[i].resp.Epoch == target {
				continue
			}
			r := shardResult{}
			r.resp, r.err = rt.clients[i].call(pinned)
			if !r.ok() || r.resp.Epoch != target {
				results[i] = r
				return topIndex{}, false, shardErr(results)
			}
			results[i] = r
		}
	}
	lists := make([][]topk.Entry, len(results))
	for i, r := range results {
		lists[i] = r.resp.Entries
	}
	x = topIndex{epoch: target, k: k}
	x.bodies, err = api.NewTopKIndex(target, results[0].resp.Engine, results[0].resp.Seed, topk.Merge(lists, k))
	return x, !mixed, err
}

// saw records what a shard reply just told the router: a failure, or an
// epoch other than the one its copy holds, ends the copy's freshness at
// once. The copy's epoch is the top index's or, while there is no
// index, the one every shard agreed on in the last probe. Callers hold
// mu.
func (rt *Router) saw(ok bool, epoch uint64) {
	held := rt.top.epoch
	if rt.top.bodies == nil && rt.status.healthy {
		held = rt.status.minEpoch
	}
	if !ok || epoch != held {
		rt.contrary++
		rt.top.confirmed = time.Time{}
	}
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request, rid string) {
	k, err := api.ParsePositiveInt(r.URL.Query().Get("k"), 20)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, 0, "bad k: %v", err)
		return
	}
	now := rt.now()
	rt.mu.Lock()
	idx, contrary := rt.top, rt.contrary
	rt.mu.Unlock()
	if idx.covers(k) && idx.fresh(now) {
		rt.indexHits.Inc()
		idx.bodies.WriteBody(w, k, false)
		return
	}
	// Ask for no less than the index holds, so one small k does not
	// shrink what the next large one (or the fallback) can be cut from.
	rt.refetches.Inc()
	fetched, agreed, err := rt.consistentTopK(max(k, idx.k), rid)
	rt.mu.Lock()
	// Fresh only if nothing the router saw since the fan-out began, its
	// own straddle included, says the cluster has moved on.
	quiet := rt.contrary == contrary
	rt.saw(err == nil && agreed, fetched.epoch)
	if err == nil {
		rt.top = fetched.bounded()
		if agreed && quiet {
			rt.top.confirmed = now
		}
	}
	rt.mu.Unlock()
	if err == nil {
		fetched.bodies.WriteBody(w, k, false)
		return
	}
	// Degraded path: the index at its stale epoch beats an error while a
	// shard is down.
	if !idx.covers(k) {
		api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, 0,
			"shard cluster unavailable and no kept answer covers k=%d: %v", k, err)
		return
	}
	rt.degraded.Inc()
	idx.bodies.WriteBody(w, k, true)
}

func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request, rid string) {
	raw := r.URL.Query().Get("vertex")
	if raw == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, 0, "missing vertex parameter")
		return
	}
	v64, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, 0, "bad vertex: %v", err)
		return
	}
	v := uint32(v64)
	// Ranks are immutable per epoch, so the vertex's last exact answer at
	// the fresh index's epoch is what its owner would say.
	now := rt.now()
	rt.mu.Lock()
	last, known := rt.lastRank[v]
	cached := known && last.Epoch == rt.top.epoch && rt.top.fresh(now)
	rt.mu.Unlock()
	if cached {
		rt.rankIndexHits.Inc()
		rt.reply(w, last)
		return
	}
	owner := int(v % uint32(len(rt.clients)))
	var res shardResult
	res.resp, res.err = rt.clients[owner].call(&request{V: api.Version, Op: opRank, Vertex: v, Rid: rid})
	rt.mu.Lock()
	rt.saw(res.ok(), res.resp.Epoch)
	last, known = rt.lastRank[v]
	rt.mu.Unlock()
	switch {
	case !res.ok():
		// Degraded fallback: the vertex's last exact answer, if any.
		if !known {
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeUnavailable, 0,
				"shard %d unavailable and no cached rank for vertex %d: %v", owner, v, res.failure())
			return
		}
		rt.degraded.Inc()
		last.Degraded = true
		rt.reply(w, last)
	case res.resp.Shard != owner:
		// A 404 from the wrong shard would be a lie: the shard list is
		// not in -shard order.
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, res.resp.Epoch,
			"vertex %d belongs to shard %d, but the shard at position %d is shard %d", v, owner, owner, res.resp.Shard)
	case !res.resp.Owned:
		// The owner answers and does not hold the vertex: it is not in
		// the graph.
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, res.resp.Epoch,
			"vertex %d not in the graph (owner shard %d of %d)", v, owner, len(rt.clients))
	default:
		rt.rankRouted.Inc()
		resp := api.RankResponse{Epoch: res.resp.Epoch, Engine: res.resp.Engine, Vertex: v, Rank: res.resp.Rank}
		// A vertex already kept is always refreshed, a new one is added
		// only under the cap.
		rt.mu.Lock()
		if _, kept := rt.lastRank[v]; kept || len(rt.lastRank) < maxCachedRank {
			rt.lastRank[v] = resp
		}
		rt.mu.Unlock()
		rt.reply(w, resp)
	}
}

// handlePPR refuses personalized PageRank explicitly: walks need the
// graph's adjacency, which the stateless router does not hold, and the
// shard RPC protocol has no walk op yet. The refusal is a deliberate
// 501 with code "unsupported" — not a 404, not folded into generic
// errors — and counted on its own instrument so a client mis-targeting
// PPR at a router shows up on /metrics.
func (rt *Router) handlePPR(w http.ResponseWriter, r *http.Request, rid string) {
	rt.pprUnsupported.Inc()
	api.WriteError(w, http.StatusNotImplemented, api.CodeUnsupported, 0,
		"ppr is not available on the router: walks need the graph; query a single-node server")
}

func (rt *Router) handleCompare(w http.ResponseWriter, r *http.Request, rid string) {
	// Compare runs a full reference engine over the graph; the router
	// is stateless by design and holds no graph. Clients run compares
	// against a shard-side single-node server (or offline).
	api.WriteError(w, http.StatusNotImplemented, api.CodeUnsupported, 0,
		"compare is not available on the router: it holds no graph; run it against a single-node server")
}

// probe fans the status op out, derives the cluster view from the
// replies and keeps it as the router's last. Ownership is v % shards,
// so a shard that answers at the wrong position of the list, or counts
// a different number of shards, is as bad as a dead one: its row is not
// OK.
func (rt *Router) probe(rid string) clusterView {
	now := rt.now()
	rt.mu.Lock()
	view := clusterView{at: now, contrary: rt.contrary, healthy: true}
	rt.mu.Unlock()
	results := rt.fanout(&request{V: api.Version, Op: opStatus, Rid: rid})
	view.rows = make([]api.ShardStatus, len(results))
	var maxEpoch uint64
	first := true
	for i, r := range results {
		row := api.ShardStatus{ID: rt.clients[i].ID(), Addr: rt.clients[i].Addr()}
		switch {
		case !r.ok():
			row.Error = r.failure().Error()
			view.healthy = false
		case r.resp.Shard != i || r.resp.Shards != len(rt.clients):
			row.Error = fmt.Sprintf("position %d of %d answers as shard %d of %d: start the process at position i with -shard i and -shards %d",
				i, len(rt.clients), r.resp.Shard, r.resp.Shards, len(rt.clients))
			view.healthy = false
		default:
			row.OK = true
			row.Epoch = r.resp.Epoch
			row.Owned = r.resp.OwnedCount
			row.SnapshotAgeSeconds = r.resp.SnapshotAge
			if r.resp.Epoch > maxEpoch {
				maxEpoch = r.resp.Epoch
			}
			if first || r.resp.Epoch < view.minEpoch {
				view.minEpoch = r.resp.Epoch
				first = false
			}
			if view.engine == "" {
				view.engine, view.seed = r.resp.Engine, r.resp.Seed
			}
		}
		view.rows[i] = row
	}
	// A shard lagging the freshest epoch is degraded: answers are
	// consistent but stale until its refresh lands.
	for _, row := range view.rows {
		if row.OK && row.Epoch < maxEpoch {
			view.healthy = false
		}
	}
	// Kept before its replies are weighed, so that with no top index a
	// probe in which every shard agrees stands on its own.
	rt.mu.Lock()
	rt.status = view
	for _, r := range results {
		rt.saw(r.ok(), r.resp.Epoch)
	}
	rt.mu.Unlock()
	return view
}

// handleStats answers from the last probe while it is fresh: the
// epoch, engine and seed the shards serve and a row per shard.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request, rid string) {
	now := rt.now()
	rt.mu.Lock()
	view, fresh := rt.status, rt.status.fresh(now, rt.contrary)
	rt.mu.Unlock()
	if !fresh {
		view = rt.probe(rid)
	}
	rt.reply(w, api.RouterStatsResponse{
		Epoch:  view.minEpoch,
		Engine: view.engine,
		Seed:   view.seed,
		Shards: view.rows,
	})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request, rid string) {
	view := rt.probe(rid)
	status := "ok"
	code := http.StatusOK
	if !view.healthy {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	body, err := json.Marshal(api.HealthResponse{Status: status, Epoch: view.minEpoch, Shards: view.rows})
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, 0, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

// Serve listens on addr and serves the router API until ctx is
// cancelled, then shuts down gracefully.
func (rt *Router) Serve(ctx context.Context, addr string) error { return rt.plane.Serve(ctx, addr) }

// Addr returns the bound listen address once Serve is up ("" before).
func (rt *Router) Addr() string { return rt.plane.Addr() }
