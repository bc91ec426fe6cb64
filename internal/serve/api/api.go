// Package api is the versioned wire schema of the query service: every
// JSON body the single-node server, the sharded router, the shard RPC
// codec and the load generator's decoder exchange is defined here,
// once; the top-k row they share is topk.Entry, which the HTTP bodies
// render through one writer here (topk.go). Producer and consumer alias
// these types instead of re-declaring inline structs, so the two sides
// of the wire cannot drift apart silently.
//
// Version gates compatibility: the shard RPC handshake carries it and
// a shard refuses requests from a router speaking a different version,
// so a mixed-version cluster fails loudly at the first query instead of
// mis-decoding frames.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/topk"
)

// Version is the wire-protocol generation of the shard RPC frame. Both
// ends read frames with encoding/json, which ignores members it does
// not know, so a frame member added, removed or changed in meaning is a
// new version. Each end refuses a decodable frame of another version by
// name; one whose member changed its JSON type does not decode, so its
// peer sees a decode error and a closed connection, not the versions.
// The HTTP bodies below may gain fields with `omitempty` without one.
// Version 2: a shard's "owned" answers v % shards == id, no longer an
// HDRF placement's masters, and the router asks the owner alone.
// Version 3: the status frame has no "queries" member.
const Version = 3

// Engine names an estimate producer a snapshot can be built from. The
// serving layer aliases this type, so the engine names on the wire and
// in build configuration are one vocabulary.
type Engine string

// TopKEntry is one result row of a top-k query: the entry the
// selection and the merge produce, so HTTP bodies, shard frames and
// internal/topk share one row type.
type TopKEntry = topk.Entry

// TopKResponse is the /v1/topk body. Degraded is set only by the
// router, when a shard failure forced the answer to be served from the
// last complete merge (at its — possibly stale — epoch); a healthy
// sharded response is byte-identical to the single-node one.
type TopKResponse struct {
	Epoch    uint64      `json:"epoch"`
	Engine   Engine      `json:"engine"`
	Seed     uint64      `json:"seed"`
	K        int         `json:"k"`
	Entries  []TopKEntry `json:"entries"`
	Degraded bool        `json:"degraded,omitempty"`
}

// PPRResponse is the /v1/ppr body: the top-k personalized PageRank of
// a source set, estimated by request-time random walks. Sources echoes
// the canonical (sorted, deduplicated) source set the walks restarted
// at; Walks is the total walk count actually executed; Truncated is
// set when the per-request walk budget forced fewer walks per source
// than configured (the result is still valid, just noisier). Within
// one epoch, identical requests produce bit-identical bodies.
type PPRResponse struct {
	Epoch     uint64      `json:"epoch"`
	Engine    Engine      `json:"engine"`
	Seed      uint64      `json:"seed"`
	Sources   []uint32    `json:"sources"`
	K         int         `json:"k"`
	Walks     int         `json:"walks"`
	Truncated bool        `json:"truncated,omitempty"`
	Entries   []TopKEntry `json:"entries"`
}

// RankResponse is the /v1/rank body.
type RankResponse struct {
	Epoch    uint64  `json:"epoch"`
	Engine   Engine  `json:"engine"`
	Vertex   uint32  `json:"vertex"`
	Rank     float64 `json:"rank"`
	Degraded bool    `json:"degraded,omitempty"`
}

// CompareResponse is the /v1/compare body: the served estimate's
// accuracy metrics against another engine run on the same graph, with
// the comparison engine treated as the reference.
type CompareResponse struct {
	Epoch               uint64  `json:"epoch"`
	Engine              Engine  `json:"engine"`
	Against             Engine  `json:"against"`
	K                   int     `json:"k"`
	CapturedMass        float64 `json:"capturedMass"`
	NormalizedMass      float64 `json:"normalizedMass"`
	ExactIdentification float64 `json:"exactIdentification"`
	L1Distance          float64 `json:"l1Distance"`
}

// GraphStats summarizes the served graph's degree structure.
type GraphStats struct {
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	MinOutDeg int     `json:"minOutDeg"`
	MaxOutDeg int     `json:"maxOutDeg"`
	MaxInDeg  int     `json:"maxInDeg"`
	MeanDeg   float64 `json:"meanDeg"`
	GiniOut   float64 `json:"giniOut"`
}

// ServeStats counts one server's query-path activity. The PPR fields
// are additive (omitempty) and absent from deployments that predate
// the endpoint, so no Version bump.
type ServeStats struct {
	Queries uint64 `json:"queries"`
	// TopKCacheHits counts top-k queries answered from the snapshot's
	// top index, rendered once at publish (k ≤ maxk).
	TopKCacheHits    uint64 `json:"topkCacheHits"`
	CompareCacheHits uint64 `json:"compareCacheHits"`
	Coalesced        uint64 `json:"coalesced"`
	Refreshes        uint64 `json:"refreshes"`
	BuildErrors      uint64 `json:"buildErrors"`
	// PPRQueries counts /v1/ppr requests; PPRCacheHits of those were
	// answered from the per-source cache alone (every source's tally,
	// or the set's cut, cached; no walk run or joined); PPRWalks is the
	// total random walks executed on their behalf.
	PPRQueries   uint64 `json:"pprQueries,omitempty"`
	PPRCacheHits uint64 `json:"pprCacheHits,omitempty"`
	PPRWalks     uint64 `json:"pprWalks,omitempty"`
	// PPRWalkSteps counts individual walk steps, on any graph. Of
	// those, on a paged graph, PPRPageLocalSteps read the page the
	// walker's reader already held and PPRWalkWaits had to wait for a
	// page that was not in the cache — the only steps that pay for I/O
	// (both zero, and absent, on fully resident graphs).
	PPRWalkSteps      uint64 `json:"pprWalkSteps,omitempty"`
	PPRPageLocalSteps uint64 `json:"pprPageLocalSteps,omitempty"`
	PPRWalkWaits      uint64 `json:"pprWalkWaits,omitempty"`
}

// PageCacheStats describes the graph page cache of a server running
// under a -graph-mem budget. Absent (nil) when the graph is fully
// resident.
type PageCacheStats struct {
	PageSize      int64  `json:"pageSize"`
	BudgetBytes   int64  `json:"budgetBytes"`
	BudgetPages   int64  `json:"budgetPages"`
	ResidentPages int64  `json:"residentPages"`
	PinnedPages   int64  `json:"pinnedPages"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	ReadBytes     uint64 `json:"readBytes"`
}

// StatsResponse is the single-node /v1/stats body.
type StatsResponse struct {
	Epoch        uint64     `json:"epoch"`
	Engine       Engine     `json:"engine"`
	Seed         uint64     `json:"seed"`
	BuiltAt      time.Time  `json:"builtAt"`
	BuildSeconds float64    `json:"buildSeconds"`
	MaxK         int        `json:"maxK"`
	Graph        GraphStats `json:"graph"`
	Serving      ServeStats `json:"serving"`
	// PageCache is set only when the graph is served under a memory
	// budget (additive, so no Version bump).
	PageCache *PageCacheStats `json:"pageCache,omitempty"`
}

// ShardStatus is one shard's row in router health and stats bodies.
type ShardStatus struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr,omitempty"`
	Epoch uint64 `json:"epoch"`
	// Owned is the number of vertices the shard masters.
	Owned int  `json:"owned,omitempty"`
	OK    bool `json:"ok"`
	// SnapshotAgeSeconds is how long ago the shard's current snapshot
	// was built — it distinguishes a shard lagging behind a refresh
	// (old snapshot, old epoch) from one that just booted (fresh
	// snapshot at an early epoch). Zero when the shard has no snapshot.
	SnapshotAgeSeconds float64 `json:"snapshotAgeSeconds,omitempty"`
	// Error carries the dial/RPC failure when OK is false.
	Error string `json:"error,omitempty"`
}

// HealthResponse is the /healthz body. The single-node server reports
// no shards; the router lists every shard with its epoch so a lagging
// or dead shard is visible, and Status is "degraded" (with HTTP 503)
// whenever any shard is down or behind the freshest epoch.
type HealthResponse struct {
	Status string        `json:"status"` // "ok" or "degraded"
	Epoch  uint64        `json:"epoch,omitempty"`
	Shards []ShardStatus `json:"shards,omitempty"`
}

// NetworkStats reports the router's measured wire traffic, the
// quantity the paper's inter-machine claims are about: real bytes on a
// real wire, per query.
type NetworkStats struct {
	// Queries is the number of routed queries the bytes are averaged
	// over.
	Queries uint64 `json:"queries"`
	// BytesSent / BytesRecv are totals across all shard connections
	// (requests out, partial results back).
	BytesSent int64 `json:"bytesSent"`
	BytesRecv int64 `json:"bytesRecv"`
	// BytesPerQuery is (BytesSent+BytesRecv)/Queries.
	BytesPerQuery float64 `json:"bytesPerQuery"`
}

// RouterStats counts the router's own query-path activity.
type RouterStats struct {
	Queries uint64 `json:"queries"`
	// Degraded counts responses served stale, from the router's top
	// index or a vertex's last exact rank, because a shard was
	// unreachable or lacked a consistent epoch.
	Degraded uint64 `json:"degraded"`
	// Retries counts per-shard RPC retries after a transport error.
	Retries uint64 `json:"retries"`
	// EpochFallbacks counts queries re-issued at an older epoch because
	// the shards disagreed on the current one.
	EpochFallbacks uint64 `json:"epochFallbacks"`
	// PPRUnsupported counts /v1/ppr requests refused with 501
	// unsupported — the router holds no graph to walk. Tracked apart
	// from generic totals so a client mis-targeting PPR at a router is
	// visible in stats, not folded into request noise.
	PPRUnsupported uint64 `json:"pprUnsupported,omitempty"`
	// TopKIndexHits counts top-k queries answered from the router's
	// fresh top index with no shard RPC; TopKRefetches counts the
	// fan-outs that (re)built it. RankRouted counts rank queries
	// answered by one RPC to the vertex's owner alone, RankIndexHits
	// those answered from the vertex's last rank at the fresh index's
	// epoch with no RPC.
	TopKIndexHits uint64 `json:"topkIndexHits"`
	TopKRefetches uint64 `json:"topkRefetches"`
	RankRouted    uint64 `json:"rankRouted"`
	RankIndexHits uint64 `json:"rankIndexHits"`
}

// RouterStatsResponse is the router's /v1/stats body.
type RouterStatsResponse struct {
	Epoch   uint64        `json:"epoch"`
	Engine  Engine        `json:"engine"`
	Seed    uint64        `json:"seed"`
	Shards  []ShardStatus `json:"shards"`
	Serving RouterStats   `json:"serving"`
	Network NetworkStats  `json:"network"`
}

// Error is the JSON error envelope every non-2xx response carries.
// Epoch is the epoch the server was serving when it failed the request
// (0 when no snapshot is published), so clients can correlate errors
// with the snapshot trail.
type Error struct {
	Message string `json:"error"`
	Code    string `json:"code"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// Error implements the error interface, so decoded envelopes propagate
// as Go errors with their machine-readable code attached.
func (e *Error) Error() string {
	return e.Code + ": " + e.Message
}

// WriteError writes the Error envelope with the given HTTP status: the
// one way every plane — single-node server, router and the middleware
// they share — fails a request.
func WriteError(w http.ResponseWriter, status int, code string, epoch uint64, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(Error{
		Message: fmt.Sprintf(format, args...),
		Code:    code,
		Epoch:   epoch,
	})
	w.Write(append(body, '\n'))
}

// jsonContentType is the Content-Type of every body, one slice shared
// by all of them: net/http only reads a header's values, and a later Add
// appends past its capacity, so it is never written through.
var jsonContentType = []string{"application/json"}

// WriteJSON writes a rendered JSON body: the one way every plane
// answers a query that succeeded.
func WriteJSON(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body)
}

// ParsePositiveInt parses a strictly positive integer query parameter,
// returning def for the empty string; both planes call it, so they
// reject the same inputs.
func ParsePositiveInt(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, err
	}
	if v <= 0 {
		return 0, fmt.Errorf("must be positive, got %d", v)
	}
	return v, nil
}

// Error codes, one vocabulary for single-node server, shards and
// router. The code says what class of failure occurred; the HTTP status
// says what the client should do about it.
const (
	// CodeBadRequest: malformed query parameters.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the queried entity does not exist.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: non-GET on a query endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNoSnapshot: nothing published yet (503, retryable).
	CodeNoSnapshot = "no_snapshot"
	// CodeInternal: marshal or compute failure inside the server.
	CodeInternal = "internal"
	// CodeUnavailable: shards unreachable and no fallback answer held,
	// or a graph read failed under a PPR walk (503, retryable).
	CodeUnavailable = "unavailable"
	// CodeUnsupported: the endpoint exists but not on this deployment
	// (e.g. /v1/compare on the stateless router).
	CodeUnsupported = "unsupported"
	// CodeVersionMismatch: RPC peers speak different wire versions.
	CodeVersionMismatch = "version_mismatch"
)
