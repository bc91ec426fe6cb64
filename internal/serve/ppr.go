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
// source, walk) — see walkSource — so identical requests in an epoch
// are bit-identical, regardless of cache state, paging, or how requests
// interleave.
//
// It also makes the estimator linear in the source set (the PPR
// linearity of Jeh & Widom, WWW 2003): a set's PPR is the uniform
// mixture of its sources', and since every source runs the same walk
// count on streams of its own, a set's tally is exactly the sum of its
// sources' tallies. So the unit of work and of caching is one source:
//
//   - An LRU of tallies keyed by (epoch, walks per source, sources). A
//     source's entry is its whole complete-path tally (pprTally, packed
//     in cut order); a multi-source set's is its top-MaxK cut, so that a
//     repeated set is a hit too. topk's order is total, so the top-k is a
//     prefix of either and every k ≤ MaxK is served from the one entry.
//   - A singleflight per (epoch, walks per source, source): concurrent
//     requests that need one source share one walk of it, whatever their
//     k and whatever other sources they name. A flight walks one source
//     and waits on nothing but the slot gate.
//
// A request that misses looks its sources up and walks only the missing
// ones, each in one walk-kernel call that draws its walks' lengths from a
// table built once (pprLengths) — equal, draw for draw, to the logarithm
// it replaces (rng.TruncGeometric) — and counts every position the walks
// stand on in the open-addressing table pooled with the walker slab
// (sized by the walks, cleared through the slots it took: nothing per
// request is sized by the graph or hashed by the runtime). It then sums
// its sources' counts in that table and cuts them to MaxK with the radix
// sort that orders every tally (pprTally.cut). A score is a count times
// 1/(walks + steps) over the same integers however they were summed, so
// the bytes do not depend on which sources were cached.
//
// A kernel call runs on the request's own goroutine, behind the slot
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
	"sync/atomic"
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
	// CacheSize is the PPR cache's capacity in entries (default 1024;
	// negative disables caching). An entry is one source's whole tally,
	// ≈ 1 KB on the benchmark's 50 k-vertex graph at the defaults, or a
	// repeated multi-source set's top-MaxK cut, smaller.
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
	flights flightGroup[string, *pprTally]
	heads   atomic.Pointer[pprHead]
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
		"PPR queries answered from the cache alone: they walked nothing and joined no walk.", nil, &e.cacheHits)
	reg.RegisterCounter("ppr_walks_total",
		"Random walks executed for PPR queries (cache hits execute none).", nil, &e.walks)
	reg.RegisterCounter("ppr_truncated_total",
		"PPR responses truncated by the per-request walk budget.", nil, &e.truncated)
	reg.RegisterCounter("ppr_cache_evictions_total",
		"PPR cache entries (a source's tally or a source set's cut) evicted by capacity pressure.", nil, &e.cache.evictions)
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
		"Time a computed PPR request (one that walked a source itself) waited for walk-kernel slots, all its sources' waits summed.", nil)
	e.walkLat = reg.Latency("ppr_walk_seconds",
		"Time a computed PPR request spent in its walk-kernel calls, one per source it walked: seeding, stepping and tally.", nil)
	return e
}

// --- tallies and the LRU --------------------------------------------

// pprTally is a tally in cut order — count descending, then vertex
// ascending: topk's total order on the scores, which are the counts times
// one 1/positions — packed as count groups. A group is a uvarint count, a
// uvarint row count, and the rows' vertex ids as uvarint gaps, the first
// from 0 and each after it from the one before. On the benchmark's graph
// a source's 400 walks stand on ≈ 485 distinct vertices at ≈ 1.85 bytes
// a row, against 16 for a topk.Entry. (Rows kept unpacked, 8 bytes each,
// raised ppr_resident's rss_peak_mb from 31.2 to 39.3 MB, past the
// benchmark's 25 % bound.)
type pprTally struct {
	rows      []byte
	n         int    // rows packed
	positions uint64 // positions all the walks stood on: walks + steps, the scores' denominator
}

// cut sorts rows, given in any order, into cut order and packs the first
// k of them, with the positions of the walks they count, into t's own
// buffer; every tally is ordered here. A row's sort key is ^count above
// the vertex, so ascending keys are cut order and a count group is a run
// of keys with equal high halves.
func (t *pprTally) cut(rows []walk.Visit, k int, positions uint64) {
	keys := pprSortKeys.Get().(*cutKeys)
	keys.a = keys.a[:0]
	for _, v := range rows {
		keys.a = append(keys.a, uint64(^uint32(v.Count))<<32|uint64(v.Vertex))
	}
	sorted := keys.sort()
	sorted = sorted[:min(k, len(sorted))]
	b := t.rows[:0]
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j]>>32 == sorted[i]>>32 {
			j++
		}
		b = binary.AppendUvarint(b, uint64(^uint32(sorted[i]>>32)))
		b = binary.AppendUvarint(b, uint64(j-i))
		prev := uint32(0)
		for _, key := range sorted[i:j] {
			b = binary.AppendUvarint(b, uint64(uint32(key)-prev))
			prev = uint32(key)
		}
		i = j
	}
	pprSortKeys.Put(keys)
	t.rows, t.n, t.positions = b, len(sorted), positions
}

// clone returns a copy of t that holds its rows in a buffer of their
// size, for the cache.
func (t *pprTally) clone() *pprTally {
	c := *t
	c.rows = bytes.Clone(t.rows)
	return &c
}

// pprTallies recycles the tallies a request packs before it clones them
// into the cache, and those PPRTopK composes and drops.
var pprTallies = sync.Pool{New: func() any { return new(pprTally) }}

// tallyReader unpacks a pprTally's rows in order.
type tallyReader struct {
	b     []byte
	count int32
	left  uint64 // rows left in the group
	v     graph.VertexID
}

func (t *pprTally) reader() tallyReader { return tallyReader{b: t.rows} }

// next returns the next row, or ok false after the last.
func (r *tallyReader) next() (v graph.VertexID, count int32, ok bool) {
	if r.left == 0 {
		if len(r.b) == 0 {
			return 0, 0, false
		}
		c, n := binary.Uvarint(r.b)
		r.b = r.b[n:]
		r.left, n = binary.Uvarint(r.b)
		r.b = r.b[n:]
		r.count, r.v = int32(c), 0
	}
	d, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	r.v += graph.VertexID(d)
	r.left--
	return r.v, r.count, true
}

// appendEntries appends the first k rows with their scores.
func (t *pprTally) appendEntries(dst []topk.Entry, k int) []topk.Entry {
	inv := 1 / float64(t.positions)
	r := t.reader()
	for range min(k, t.n) {
		v, c, _ := r.next()
		dst = append(dst, topk.Entry{Vertex: v, Score: float64(c) * inv})
	}
	return dst
}

// composeCut sums the tallies — a source set's, one per source, all of
// the same walk count — in a pooled walk.Scratch table and cuts the sum
// to its top k into dst. Cutting by count cuts by score: every score is
// its count times the same 1/positions.
func composeCut(tallies []*pprTally, k int, dst *pprTally) {
	s := walk.Get()
	defer s.Put()
	var positions uint64
	distinct := 0
	for _, t := range tallies {
		positions += t.positions
		distinct += t.n
	}
	s.StartSum(distinct)
	for _, t := range tallies {
		for r := t.reader(); ; {
			v, c, ok := r.next()
			if !ok {
				break
			}
			s.AddCount(v, c)
		}
	}
	dst.cut(s.Visits(), k, positions)
}

// pprHead is the opening every body at one snapshot shares, as
// encoding/json writes it: `{"epoch":…,"engine":…,"seed":…,"sources":[`.
type pprHead struct {
	epoch, seed uint64
	engine      api.Engine
	b           []byte
}

// head returns the bodies' opening at snap, rendered once per snapshot.
func (e *pprEngine) head(snap *Snapshot) []byte {
	if h := e.heads.Load(); h != nil && h.epoch == snap.Epoch && h.seed == snap.Seed && h.engine == snap.Engine {
		return h.b
	}
	b, _ := json.Marshal(api.PPRResponse{Epoch: snap.Epoch, Engine: snap.Engine, Seed: snap.Seed}) // no float: cannot fail
	b = append(b[:bytes.Index(b, []byte(`"sources":`))], `"sources":[`...)
	e.heads.Store(&pprHead{epoch: snap.Epoch, seed: snap.Seed, engine: snap.Engine, b: b})
	return b
}

// appendPPRBody appends encoding/json's PPRResponse for the plan and rows,
// then a newline. head is the snapshot's opening (pprEngine.head).
func appendPPRBody(dst, head []byte, plan pprPlan, rows []topk.Entry) ([]byte, error) {
	dst = append(dst, head...)
	for i, src := range plan.sources {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(src), 10)
	}
	dst = append(dst, `],"k":`...)
	dst = strconv.AppendInt(dst, int64(len(rows)), 10)
	dst = append(dst, `,"walks":`...)
	dst = strconv.AppendInt(dst, int64(plan.walks()), 10)
	if plan.truncated {
		dst = append(dst, `,"truncated":true`...)
	}
	dst = append(dst, `,"entries":[`...)
	dst, err := api.AppendTopKRows(dst, rows)
	return append(dst, "]}\n"...), err
}

// pprBody is a pooled response: the body and the rows it renders.
type pprBody struct {
	b    []byte
	rows []topk.Entry
}

var pprBodies = sync.Pool{New: func() any { return new(pprBody) }}

// replyPPR writes the response for the top-k of t, the plan's tally.
func (s *Server) replyPPR(w http.ResponseWriter, snap *Snapshot, plan pprPlan, t *pprTally, k int) {
	body := pprBodies.Get().(*pprBody)
	body.rows = t.appendEntries(body.rows[:0], k)
	var err error
	if body.b, err = appendPPRBody(body.b[:0], s.ppr.head(snap), plan, body.rows); err != nil {
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
	} else {
		api.WriteJSON(w, body.b)
	}
	pprBodies.Put(body)
}

// appendPPRKey appends the cache key of a canonical source set at an
// epoch and walk count per source: all fixed width, so two keys never
// collide. A one-source key is also that source's flight key.
func appendPPRKey(dst []byte, epoch uint64, walksPer int, sources []graph.VertexID) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(walksPer))
	for _, s := range sources {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}

// pprCache is a size-bounded LRU of tallies. Keys carry the epoch, so a
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
	key   string
	tally *pprTally
}

func newPPRCache(max int) *pprCache {
	return &pprCache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached tally and refreshes its recency. The key is
// looked up without being copied into a string.
func (c *pprCache) Get(key []byte) (*pprTally, bool) {
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
	return el.Value.(*pprCacheEntry).tally, true
}

// Put inserts a tally, evicting from the cold end past capacity.
func (c *pprCache) Put(key string, t *pprTally) {
	if c.max < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*pprCacheEntry).tally = t
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&pprCacheEntry{key: key, tally: t})
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

// walkSource runs the walks of one source over snap's graph in one call
// of the walk kernel and packs their complete-path tally into t. A
// geometric-length walk from the source visits each vertex 1/pT times
// its personalized PageRank in expectation, and stands on 1/pT positions
// (the start, then one per step: the paper's reference [5], Avrachenkov
// et al.), so each vertex's share of all the positions estimates the
// personalized vector, restart distribution concentrated on the source,
// and the shares sum to 1; the endpoint alone samples it too (the
// paper's Lemma 16) but uses one position of each walk instead of all.
// A walk stuck on a dangling vertex restarts at its source, a step that
// counts, matching ExactPPR's dangling-mass treatment.
// Walk w draws only from its own stream derived from (snapshot seed,
// epoch, source, w) — all but w folded once per source (rng.DerivePrefix),
// then length first (pprLengths: the draw stream.Geometric makes, capped
// at pprWalkCutoff), then one draw per edge move — so the tally is
// bit-identical whichever walks wait for a page and in whatever order
// pages are loaded: paging and relabeling can never change a served
// body. The positions are counted in the Scratch's own table, which is
// sized by the walks, not by the graph (the NeedleTail-style density
// argument: a top-k cut never needs a dense n-length vector).
//
// A read can fail only where the kernel loads a page (its sweep; the
// free-running probe does no I/O). A fault fails this call.
func walkSource(snap *Snapshot, src graph.VertexID, walksPer int, t *pprTally) (st walk.Stats, err error) {
	s := walk.Get()
	defer s.Put()
	r := snap.Graph.NewAdjReader()
	defer r.Release()
	defer catchStorageFault("ppr walk", &err)
	prefix := rng.DerivePrefix(snap.Seed, pprPurpose, snap.Epoch, uint64(src))
	for w := 0; w < walksPer; w++ {
		stream := prefix.Value(uint64(w))
		s.Add(stream, src, pprLengths.Draw(&stream))
	}
	st = s.Run(r, true, true)
	rows := s.Visits()
	t.cut(rows, len(rows), uint64(walksPer)+st.Steps)
	return st, nil
}

// cutKeys is a tally's sort keys and the scratch radix sort moves them
// through.
type cutKeys struct{ a, b []uint64 }

// sort sorts a ascending and returns the sorted keys, in a or b: least
// significant byte first, skipping the bytes every key shares. Cut-order
// keys differ in few of their bytes (on a graph under 65 536 vertices,
// the vertex's two and the count's lowest one or two), so this is a few
// counting passes: less than half the time slices.Sort took.
func (k *cutKeys) sort() []uint64 {
	a := k.a
	k.b = slices.Grow(k.b[:0], len(a))[:len(a)]
	b := k.b
	or, and := uint64(0), ^uint64(0)
	for _, x := range a {
		or, and = or|x, and&x
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte((or^and)>>shift) == 0 {
			continue
		}
		var at [256]int32
		for _, x := range a {
			at[byte(x>>shift)]++
		}
		sum := int32(0)
		for i, n := range at {
			at[i], sum = sum, sum+n
		}
		for _, x := range a {
			d := byte(x >> shift)
			b[at[d]] = x
			at[d]++
		}
		a, b = b, a
	}
	return a
}

// pprSortKeys recycles the cuts' sort keys.
var pprSortKeys = sync.Pool{New: func() any { return new(cutKeys) }}

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
// flights are keyed by sources and walks per source and not by k. The
// HTTP handler and the PPRTopK facade both plan through it and cut the
// same per-source tallies (pprTally.cut), so they cannot drift.
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

// handlePPR answers GET /v1/ppr?source=u&k= (or sources=a,b,c): the
// top-k personalized PageRank of the source set, estimated by
// request-time walks under the configured budget, and served as the
// first k rows of the set's cached tally: a source's own, or a
// multi-source set's top-MaxK cut.
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

	var kb [8 + 4 + 4*16]byte // the key of a default-sized source set stays on the stack
	key := appendPPRKey(kb[:0], snap.Epoch, plan.walksPer, plan.sources)
	if t, ok := s.ppr.cache.Get(key); ok {
		s.ppr.cacheHits.Inc()
		s.replyPPR(w, snap, plan, t, k)
		return
	}
	t, err := s.pprCompose(snap, plan, key)
	switch {
	case errors.Is(err, errStorageFault): // the cause is in the server's log, not the client's body
		s.fail(w, http.StatusServiceUnavailable, api.CodeUnavailable, "walks aborted by a failed graph read; retry")
	case err != nil:
		s.fail(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
	default:
		s.replyPPR(w, snap, plan, t, k)
	}
}

// PPRTopK estimates the top-k personalized PageRank of the source set
// over snap with the same bounded-budget walk estimator /v1/ppr
// serves — the embedding hook for callers that hold a snapshot and
// want answers without HTTP. Sources are canonicalized (sorted,
// deduplicated); the boolean reports budget truncation. It walks every
// source, composes more than one as a served request does (without the
// cache) and renders the rows a served body renders, so the entries are
// bit-identical to the served response's for the same snapshot, sources,
// k and options.
func PPRTopK(snap *Snapshot, sources []graph.VertexID, k int, opts PPROptions) ([]topk.Entry, bool, error) {
	opts = opts.withDefaults()
	plan, _, _, err := planPPR(sources, k, snap.Graph.NumVertices(), opts)
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	var held [16]*pprTally // a default-sized source set's tallies stay on the stack
	tallies := held[:0]
	defer func() {
		for _, t := range tallies {
			pprTallies.Put(t)
		}
	}()
	for _, src := range plan.sources {
		t := pprTallies.Get().(*pprTally)
		tallies = append(tallies, t)
		if _, err := walkSource(snap, src, plan.walksPer, t); err != nil {
			return nil, plan.truncated, err
		}
	}
	t := tallies[0]
	if len(tallies) > 1 {
		t = pprTallies.Get().(*pprTally)
		defer pprTallies.Put(t)
		composeCut(tallies, k, t)
	}
	return t.appendEntries(make([]topk.Entry, 0, min(k, t.n)), k), plan.truncated, nil
}

// pprCost is what one request's own kernel calls cost it: the slot
// waits and walk times of the sources it walked, summed.
type pprCost struct {
	calls      int
	wait, walk time.Duration
}

// pprCompose answers a plan the cache did not hold whole: it looks each
// source up, walks the missing ones one flight each, and for more than
// one source sums the tallies, cuts them to MaxK and caches the cut under
// key, the set's. A request that walked nothing and joined no walk is a
// cache hit too; one that joined another's walk is coalesced.
func (s *Server) pprCompose(snap *Snapshot, plan pprPlan, key []byte) (*pprTally, error) {
	e := s.ppr
	var cost pprCost
	shared := false
	defer func() {
		if cost.calls > 0 {
			e.slotWait.Observe(cost.wait)
			e.walkLat.Observe(cost.walk)
			if plan.truncated {
				e.truncated.Inc()
			}
		}
		switch {
		case shared:
			s.coalesced.Inc()
		case cost.calls == 0:
			e.cacheHits.Inc()
		}
	}()
	tallies := make([]*pprTally, len(plan.sources))
	var sk [8 + 4 + 4]byte
	for i, src := range plan.sources {
		skey := appendPPRKey(sk[:0], snap.Epoch, plan.walksPer, plan.sources[i:i+1])
		if len(plan.sources) > 1 { // the set's key, which missed, is this one's otherwise
			if t, ok := e.cache.Get(skey); ok {
				tallies[i] = t
				continue
			}
		}
		flight := string(skey)
		t, err, joined := e.flights.Do(flight, func() (*pprTally, error) {
			if t, ok := e.cache.Get(skey); ok { // cached by a flight that ended since the lookup
				return t, nil
			}
			t, err := e.walk(snap, src, plan.walksPer, &cost)
			if err == nil {
				e.cache.Put(flight, t)
			}
			return t, err
		})
		shared = shared || joined
		if err != nil {
			return nil, err
		}
		tallies[i] = t
	}
	if len(tallies) == 1 {
		return tallies[0], nil
	}
	t := new(pprTally)
	composeCut(tallies, e.opts.MaxK, t)
	e.cache.Put(string(key), t)
	return t, nil
}

// walk is walkSource for a served request: behind the slot gate, counted,
// and its slot wait and kernel time added to the request's cost.
func (e *pprEngine) walk(snap *Snapshot, src graph.VertexID, walksPer int, cost *pprCost) (*pprTally, error) {
	queued := time.Now()
	e.slots <- struct{}{}
	defer func() { <-e.slots }() // deferred: a panic under the walk must not keep the slot
	start := time.Now()
	packed := pprTallies.Get().(*pprTally)
	defer pprTallies.Put(packed)
	st, err := walkSource(snap, src, walksPer, packed)
	cost.calls++
	cost.wait += start.Sub(queued)
	cost.walk += time.Since(start)
	e.walks.Add(uint64(walksPer))
	e.steps.Add(st.Steps)
	if snap.Graph.Paged() {
		e.local.Add(st.PageLocal) // a resident graph has no pages to be local to
	}
	e.waits.Add(st.Waits)
	e.sweeps.Add(st.Sweeps)
	if err != nil {
		e.faults.Inc()
		return nil, err
	}
	return packed.clone(), nil
}
