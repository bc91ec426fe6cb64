package serve

// Personalized PageRank serving. The paper's Section 2.4 frames top-k
// PPR as the problem FrogWild solves with a one-line change to the
// restart distribution; internal/frogwild computes it offline. This
// file serves it interactively: /v1/ppr answers per-user queries with
// request-time truncated-geometric walks over the current snapshot's
// graph — no precomputation per source, so any of the n vertices can
// be a source — under a hard per-request walk budget.
//
// Determinism is the contract, like everywhere else in the repo: each
// walk draws from its own stream derived from (snapshot seed, epoch,
// source, walk) — see pprWalk — so identical requests in an epoch
// are bit-identical, regardless of cache state, paging, or how requests
// interleave.
//
// Two layers amortize the work under hot traffic, both keyed by
// (epoch, source set) and neither by k:
//
//   - An LRU of cuts: a source set's top-MaxK entries (pprCut). topk's
//     order is total, so the top-k is a prefix of the top-MaxK and every
//     k ≤ MaxK is served from the one cut; Zipf-skewed source popularity
//     then makes a repeated source cheap whatever k it is asked with.
//   - A singleflight per (epoch, source set): concurrent requests for one
//     source set share one execution, whatever their k.
//
// A request that misses both costs what its steps cost. It draws each
// walk's length from a table built once (pprLengths) — equal, draw for
// draw, to the logarithm it replaces (rng.TruncGeometric) —
// runs its whole plan in one walk-kernel call, counts every position the
// walks stand on in the open-addressing table pooled with the walker slab
// (sized by the walks, cleared through the slots it took: nothing per
// request is sized by the graph or hashed by the runtime) and cuts them
// to MaxK on a bounded heap over that one slice (topk.Select); every
// request for the source set, this one included, renders the first k
// entries of that cut.
//
// The kernel call runs on the request's own goroutine, behind the slot
// gate (pprEngine.slots): at most GOMAXPROCS kernel calls run at once.
// The gate is there for the page cache, not for the CPU: eight
// concurrent clients over HTTP on a 2-core, 4 MiB -graph-mem server (64
// page frames) got 1 330 q/s at p95 12.7 / p99 17.0 ms with the calls
// bounded and 1 240 q/s at p95 18.6 / p99 26.0 ms with all eight walking
// at once, each evicting the pages the others were about to read
// (medians of seven runs, at PR 19).

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pagerank"
	"repro/internal/rng"
	"repro/internal/serve/api"
	"repro/internal/topk"
	"repro/internal/walk"
)

// pprPurpose labels the rng stream domain for PPR walks, so they can
// never correlate with any other consumer of the snapshot seed.
const pprPurpose = uint64('P')<<8 | uint64('R')

// PPROptions tunes the /v1/ppr endpoint. The zero value serves with
// the defaults below; the endpoint is always on.
type PPROptions struct {
	// WalksPerSource is how many walks each source gets when the budget
	// allows (default 400). More walks, tighter estimates: every walk
	// tallies each position it stands on, ≈ 1/pT of them, so 400 walks
	// estimate better than 2000 endpoints did.
	WalksPerSource int
	// WalkBudget is the hard per-request walk cap across all sources
	// (default 16384, above the 16 × 400 = 6400 walks of the largest
	// default request, so with the other defaults nothing truncates). A
	// request whose sources × WalksPerSource exceed it runs fewer walks
	// per source and is flagged "truncated": true; a request with more
	// sources than the budget is rejected.
	WalkBudget int
	// MaxK bounds the k parameter (default 100). A computed request cuts
	// its tally to MaxK, whatever its k, so that one cut answers every k.
	MaxK int
	// MaxSources bounds the source set size (default 16).
	MaxSources int
	// CacheSize is the hot-source LRU capacity in source sets, one top-MaxK
	// cut each — 16 bytes a row, so ≈ 2 MB full at the defaults (default
	// 1024; negative disables caching).
	CacheSize int
}

// withDefaults resolves the zero values.
func (o PPROptions) withDefaults() PPROptions {
	if o.WalksPerSource <= 0 {
		o.WalksPerSource = 400
	}
	if o.WalkBudget <= 0 {
		o.WalkBudget = 16384
	}
	if o.MaxK <= 0 {
		o.MaxK = 100
	}
	if o.MaxSources <= 0 {
		o.MaxSources = 16
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	return o
}

// pprEngine owns the /v1/ppr serving state: cache, flights, the slot
// gate and instruments. One per Server.
type pprEngine struct {
	opts PPROptions

	cache   *pprCache
	flights flightGroup[string, *pprCut]
	// slots holds one token per walk-kernel call in flight; a request
	// waits here, and nowhere else, for other requests.
	slots chan struct{}

	queries   obs.Counter
	cacheHits obs.Counter
	walks     obs.Counter
	truncated obs.Counter
	steps     obs.Counter
	local     obs.Counter
	waits     obs.Counter
	sweeps    obs.Counter
	faults    obs.Counter
	lat       *obs.Latency
	slotWait  *obs.Latency
	walkLat   *obs.Latency
}

// newPPREngine builds the engine and registers its instruments on reg.
func newPPREngine(opts PPROptions, reg *obs.Registry) *pprEngine {
	e := &pprEngine{opts: opts.withDefaults()}
	e.cache = newPPRCache(e.opts.CacheSize)
	e.slots = make(chan struct{}, runtime.GOMAXPROCS(0))
	reg.RegisterCounter("ppr_requests_total",
		"Personalized PageRank queries (method-allowed GETs on /v1/ppr).", nil, &e.queries)
	reg.RegisterCounter("ppr_cache_hits_total",
		"PPR queries answered from the hot-source LRU.", nil, &e.cacheHits)
	reg.RegisterCounter("ppr_walks_total",
		"Random walks executed for PPR queries (cache hits execute none).", nil, &e.walks)
	reg.RegisterCounter("ppr_truncated_total",
		"PPR responses truncated by the per-request walk budget.", nil, &e.truncated)
	reg.RegisterCounter("ppr_cache_evictions_total",
		"Source sets' cuts evicted from the PPR LRU by capacity pressure.", nil, &e.cache.evictions)
	reg.RegisterCounter("ppr_walk_steps_total",
		"Individual walk steps executed for PPR queries on any graph (dangling restarts included).", nil, &e.steps)
	reg.RegisterCounter("ppr_walk_page_local_steps_total",
		"Walk steps on paged graphs whose adjacency read hit the cache page the walker's reader already held (0 on resident graphs).", nil, &e.local)
	reg.RegisterCounter("ppr_walk_waits_total",
		"Walk steps that waited for a page that was not in the cache (0 on resident graphs).", nil, &e.waits)
	reg.RegisterCounter("ppr_walk_sweeps_total",
		"Page-ordered passes in which the walk kernel loaded the pages its waiting steps needed (0 on resident graphs).", nil, &e.sweeps)
	reg.RegisterCounter("ppr_walk_faults_total",
		"Walk-kernel calls aborted by a failed adjacency read; the request whose walks they were answers 503 unavailable.", nil, &e.faults)
	e.lat = reg.Latency("ppr_request_seconds",
		"PPR request handling latency, cache hits included.", nil)
	e.slotWait = reg.Latency("ppr_slot_wait_seconds",
		"Time a computed PPR request (no cache hit, not coalesced) waited for a walk-kernel slot.", nil)
	e.walkLat = reg.Latency("ppr_walk_seconds",
		"Time a computed PPR request spent in its walk-kernel call: seeding, stepping, tally and top-k cut.", nil)
	return e
}

// --- hot-source LRU -------------------------------------------------

// pprCut is one source set's top-MaxK cut at one epoch. It keeps the
// entries, 16 bytes a row, and renders the response for a k on each
// request from the first k of them — topk's order is total, so the top-k
// is a prefix of every longer cut, and the bytes are those of a cut to k.
// (Rendered once, a row is ≈ 47 bytes: on a page-cache-sized server a
// full LRU of rendered cuts cost more memory than its graph's pages.)
type pprCut struct {
	// head and mid are the response's fields before and after the value
	// of "k", as encoding/json writes them; mid ends inside the entries'
	// '['.
	head, mid []byte
	entries   []topk.Entry
}

// newPPRCut keeps a copy of entries, the cut (topk.Select leaves it at
// the front of the whole tally, which the copy lets go), and renders the
// rest of resp, the response for them. `,"k":0,` cannot occur inside a
// JSON string (its quotes would be escaped), and entries is the last
// field.
func newPPRCut(resp api.PPRResponse, entries []topk.Entry) (*pprCut, error) {
	resp.K, resp.Entries = 0, []api.TopKEntry{}
	b, err := json.Marshal(resp) // {…,"k":0,"walks":…,"entries":[]}
	if err != nil {
		return nil, err
	}
	at := bytes.Index(b, []byte(`,"k":0,`)) + len(`,"k":`)
	return &pprCut{head: b[:at], mid: b[at+1 : len(b)-2], entries: slices.Clone(entries)}, nil
}

// appendBody appends the response for the top-k of the cut to dst.
func (c *pprCut) appendBody(dst []byte, k int) ([]byte, error) {
	rows := c.entries[:min(k, len(c.entries))]
	dst = append(dst, c.head...)
	dst = strconv.AppendInt(dst, int64(len(rows)), 10)
	dst = append(dst, c.mid...)
	dst, err := api.AppendTopKRows(dst, rows)
	return append(dst, "]}\n"...), err
}

// pprBodies recycles the buffers responses are assembled in.
var pprBodies = sync.Pool{New: func() any { return new([]byte) }}

// replyPPR writes the response for the top-k of c.
func (s *Server) replyPPR(w http.ResponseWriter, c *pprCut, k int) {
	buf := pprBodies.Get().(*[]byte)
	var err error
	if *buf, err = c.appendBody((*buf)[:0], k); err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
	} else {
		api.WriteJSON(w, *buf)
	}
	pprBodies.Put(buf)
}

// appendPPRKey appends the cache and flight key of a canonical source
// set at an epoch: the epoch and each source, fixed width, so two sets
// never share a key.
func appendPPRKey(dst []byte, epoch uint64, sources []graph.VertexID) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	for _, s := range sources {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}

// pprCache is a size-bounded LRU of cuts. Keys carry the epoch, so a
// snapshot swap naturally misses and stale entries age out under
// capacity pressure.
type pprCache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions obs.Counter
}

type pprCacheEntry struct {
	key string
	cut *pprCut
}

func newPPRCache(max int) *pprCache {
	return &pprCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached cut and refreshes its recency. The key is
// looked up without being copied into a string.
func (c *pprCache) Get(key []byte) (*pprCut, bool) {
	if c.max < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*pprCacheEntry).cut, true
}

// Put inserts a cut, evicting from the cold end past capacity.
func (c *pprCache) Put(key string, cut *pprCut) {
	if c.max < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*pprCacheEntry).cut = cut
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&pprCacheEntry{key: key, cut: cut})
	for c.ll.Len() > c.max {
		cold := c.ll.Back()
		c.ll.Remove(cold)
		delete(c.items, cold.Value.(*pprCacheEntry).key)
		c.evictions.Inc()
	}
}

// Len reports the current entry count (tests and eviction accounting).
func (c *pprCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// --- walking ---------------------------------------------------------

// errStorageFault marks work aborted by a failed adjacency read.
var errStorageFault = errors.New("graph read fault")

// catchStorageFault, deferred, turns a failed paged read under the
// calling goroutine into an error. The pager's cursor panics with the
// I/O error (see graph.AdjCursor), so every place the server walks or
// rebuilds over a snapshot's graph defers this, and recovers only that:
// the fault is logged with its stack and *err wraps it as
// errStorageFault. Any other panic (a runtime error: corrupt adjacency,
// a kernel bug) is not a storage fault and propagates.
func catchStorageFault(what string, err *error) {
	p := recover()
	if p == nil {
		return
	}
	cause, ok := p.(error)
	if _, bug := p.(runtime.Error); bug || !ok {
		panic(p)
	}
	log.Printf("serve: %s aborted by a failed graph read: %v\n%s", what, cause, debug.Stack())
	*err = fmt.Errorf("%w: %w", errStorageFault, cause)
}

// pprWalkCutoff truncates each geometric walk length. With teleport
// 0.15 the probability of a longer walk is under 3e-5, so truncation
// bias is far below sampling noise.
const pprWalkCutoff = 64

// pprLengths draws every PPR walk's length: min(Geometric(pT), 64).
var pprLengths = rng.NewTruncGeometric(pagerank.DefaultTeleport, pprWalkCutoff)

// pprWalk runs every walk of the plan over snap's graph in one call of
// the walk kernel and returns the complete-path tally, one entry per
// distinct vertex the walks stood on, scored with its share of all
// their positions, in no particular order. A geometric-length walk from
// the source visits each vertex 1/pT times its personalized PageRank in
// expectation, and stands on 1/pT positions (the start, then one per
// step: the paper's reference [5], Avrachenkov et al.), so the shares
// estimate the personalized vector, restart distribution concentrated
// on the source, and sum to 1; the endpoint alone samples it too (the
// paper's Lemma 16) but uses one position of each walk instead of all.
// A walk stuck on a dangling vertex restarts at its source, a step that
// counts, matching ExactPPR's dangling-mass treatment.
// Walk w of a source draws only from its own stream derived from
// (snapshot seed, epoch, source, w) — length first (pprLengths: the draw
// stream.Geometric makes, capped at pprWalkCutoff), then one draw per edge
// move — so the tally is bit-identical whichever walks wait for a page
// and in whatever order pages are loaded: paging and relabeling can
// never change a served body. The positions are counted in the Scratch's
// own table (walk.Scratch.Visits), which is sized by the walks ≤ budget,
// not by the graph (the NeedleTail-style density argument: a top-k cut
// never needs a dense n-length vector).
//
// A read can fail only where the kernel loads a page (its sweep; the
// free-running probe does no I/O). A fault fails this call, which is
// this request and no other.
func pprWalk(snap *Snapshot, plan pprPlan) (entries []topk.Entry, st walk.Stats, err error) {
	s := walk.Get()
	defer s.Put()
	r := snap.Graph.NewAdjReader()
	defer r.Release()
	defer catchStorageFault("ppr walk", &err)
	for _, src := range plan.sources {
		for w := 0; w < plan.walksPer; w++ {
			stream := rng.DeriveValue(snap.Seed, pprPurpose, snap.Epoch, uint64(src), uint64(w))
			s.Add(stream, src, pprLengths.Draw(&stream))
		}
	}
	st = s.Run(r, true, true)
	return visitEntries(s, st.Steps), st, nil
}

// visitEntries copies the tally of a Run over s's walkers, which took
// steps steps, out of the Scratch: one entry per distinct vertex, scored
// with its share of the walkers + steps positions.
func visitEntries(s *walk.Scratch, steps uint64) []topk.Entry {
	visits := s.Visits()
	entries := make([]topk.Entry, len(visits))
	inv := 1 / float64(uint64(len(s.Walkers))+steps)
	for i, v := range visits {
		entries[i] = topk.Entry{Vertex: v.Vertex, Score: float64(v.Count) * inv}
	}
	return entries
}

// --- request handling -----------------------------------------------

// parsePPRSources parses the source/sources parameters into the
// requested source list (planPPR canonicalizes and bounds it).
func parsePPRSources(q url.Values) ([]graph.VertexID, error) {
	raw := q.Get("sources")
	if raw == "" {
		raw = q.Get("source")
	}
	if !q.Has("sources") && !q.Has("source") {
		return nil, fmt.Errorf("missing source parameter (source=u or sources=a,b,c)")
	}
	sources := make([]graph.VertexID, 0, strings.Count(raw, ",")+1)
	for rest := raw; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, ",")
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad source %q: %v", p, err)
		}
		sources = append(sources, graph.VertexID(v))
	}
	return sources, nil
}

// pprPlan is a validated request's walks: the canonical (sorted,
// deduplicated) source set and the walk budget's split across it — all
// a cut depends on besides the snapshot, which is why the cache and the
// flights are keyed by the source set and not by k. The HTTP handler and
// the PPRTopK facade both plan, walk and cut through it, so they cannot
// drift.
type pprPlan struct {
	sources   []graph.VertexID
	walksPer  int
	truncated bool
}

// planPPR validates a request against a graph of n vertices; a
// rejection carries the status and code the error-envelope table pins.
// The k ceiling (MaxK) is an HTTP limit and stays in the handler.
func planPPR(sources []graph.VertexID, k, n int, opts PPROptions) (pprPlan, int, string, error) {
	for _, s := range sources {
		if int(s) >= n {
			return pprPlan{}, http.StatusNotFound, api.CodeNotFound, fmt.Errorf("source %d not in graph (n=%d)", s, n)
		}
	}
	srcs := slices.Clone(sources)
	slices.Sort(srcs)
	srcs = slices.Compact(srcs)
	var err error
	switch {
	case len(srcs) == 0:
		err = errors.New("empty source set")
	case len(srcs) > opts.MaxSources:
		err = fmt.Errorf("%d sources exceed the limit of %d", len(srcs), opts.MaxSources)
	case opts.WalkBudget/len(srcs) == 0:
		err = fmt.Errorf("walk budget %d cannot cover %d sources", opts.WalkBudget, len(srcs))
	case k <= 0:
		err = fmt.Errorf("k must be positive, got %d", k)
	}
	if err != nil {
		return pprPlan{}, http.StatusBadRequest, api.CodeBadRequest, err
	}
	walksPer := min(opts.WalksPerSource, opts.WalkBudget/len(srcs))
	return pprPlan{sources: srcs, walksPer: walksPer, truncated: walksPer < opts.WalksPerSource}, 0, "", nil
}

// walks is the number of walks the plan runs in total.
func (p pprPlan) walks() int { return p.walksPer * len(p.sources) }

// run walks the plan over snap and cuts the tally — the source set's
// PPR is the uniform mixture of the per-source PPR vectors, and every
// source ran the same walk count — to the top-k entries in the topk
// package's total order (score descending, vertex ascending on ties), so
// the result is deterministic, consistent with /v1/topk semantics, and
// for any k a prefix of the cut to any larger k.
func (p pprPlan) run(snap *Snapshot, k int) ([]topk.Entry, walk.Stats, error) {
	entries, st, err := pprWalk(snap, p)
	if err != nil {
		return nil, st, err
	}
	return topk.Select(entries, k), st, nil
}

// handlePPR answers GET /v1/ppr?source=u&k= (or sources=a,b,c): the
// top-k personalized PageRank of the source set, estimated by
// request-time walks under the configured budget, and served as the
// first k rows of the source set's top-MaxK cut.
func (s *Server) handlePPR(w http.ResponseWriter, r *http.Request, _ string) {
	start := time.Now()
	defer func() { s.ppr.lat.Observe(time.Since(start)) }()
	s.ppr.queries.Inc()
	snap := s.current(w)
	if snap == nil {
		return
	}
	q := r.URL.Query()
	k, err := api.ParsePositiveInt(q.Get("k"), 20)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "bad k: %v", err)
		return
	}
	if k > s.ppr.opts.MaxK {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "k %d exceeds the limit of %d", k, s.ppr.opts.MaxK)
		return
	}
	sources, err := parsePPRSources(q)
	if err != nil {
		s.fail(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	plan, status, code, err := planPPR(sources, k, snap.Graph.NumVertices(), s.ppr.opts)
	if err != nil {
		s.fail(w, status, code, "%v", err)
		return
	}

	var kb [8 + 4*16]byte // the key of a default-sized source set stays on the stack
	key := appendPPRKey(kb[:0], snap.Epoch, plan.sources)
	if cut, ok := s.ppr.cache.Get(key); ok {
		s.ppr.cacheHits.Inc()
		s.replyPPR(w, cut, k)
		return
	}
	flight := string(key)
	cut, err, shared := s.ppr.flights.Do(flight, func() (*pprCut, error) {
		cut, err := s.pprCompute(snap, plan)
		if err == nil {
			s.ppr.cache.Put(flight, cut)
		}
		return cut, err
	})
	if shared {
		s.coalesced.Inc()
	}
	switch {
	case errors.Is(err, errStorageFault): // the cause is in the server's log, not the client's body
		s.fail(w, http.StatusServiceUnavailable, api.CodeUnavailable, "walks aborted by a failed graph read; retry")
	case err != nil:
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
	default:
		s.replyPPR(w, cut, k)
	}
}

// PPRTopK estimates the top-k personalized PageRank of the source set
// over snap with the same bounded-budget walk estimator /v1/ppr
// serves — the embedding hook for callers that hold a snapshot and
// want answers without HTTP. Sources are
// canonicalized (sorted, deduplicated); the boolean reports budget
// truncation. The entries are bit-identical to the served response's
// for the same snapshot, sources, k and options.
func PPRTopK(snap *Snapshot, sources []graph.VertexID, k int, opts PPROptions) ([]topk.Entry, bool, error) {
	opts = opts.withDefaults()
	plan, _, _, err := planPPR(sources, k, snap.Graph.NumVertices(), opts)
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	entries, _, err := plan.run(snap, k)
	return entries, plan.truncated, err
}

// walk is plan.run to MaxK for a served request: behind the slot gate,
// counted and timed — the wait for the slot and the kernel call are the
// first two stages of a computed request's latency.
func (e *pprEngine) walk(snap *Snapshot, plan pprPlan) ([]topk.Entry, error) {
	queued := time.Now()
	e.slots <- struct{}{}
	defer func() { <-e.slots }() // deferred: a panic under the walk must not keep the slot
	start := time.Now()
	e.slotWait.Observe(start.Sub(queued))
	entries, st, err := plan.run(snap, e.opts.MaxK)
	e.walkLat.Observe(time.Since(start))
	e.walks.Add(uint64(plan.walks()))
	e.steps.Add(st.Steps)
	if snap.Graph.Paged() {
		e.local.Add(st.PageLocal) // a resident graph has no pages to be local to
	}
	e.waits.Add(st.Waits)
	e.sweeps.Add(st.Sweeps)
	if err != nil {
		e.faults.Inc()
	}
	return entries, err
}

// pprCompute runs the plan's walks and renders their top-MaxK cut.
// Bit-identical for identical (snapshot, plan).
func (s *Server) pprCompute(snap *Snapshot, plan pprPlan) (*pprCut, error) {
	if plan.truncated {
		s.ppr.truncated.Inc()
	}
	entries, err := s.ppr.walk(snap, plan)
	if err != nil {
		return nil, err
	}
	return newPPRCut(api.PPRResponse{
		Epoch:     snap.Epoch,
		Engine:    snap.Engine,
		Seed:      snap.Seed,
		Sources:   plan.sources,
		Walks:     plan.walks(),
		Truncated: plan.truncated,
	}, entries)
}
