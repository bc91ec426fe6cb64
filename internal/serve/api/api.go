// Package api is the versioned wire schema of the query service: every
// JSON body the single-node server, the sharded router, the shard RPC
// codec and the load generator's decoder exchange is defined here,
// once; the top-k row they share is topk.Entry, which the HTTP bodies
// render through one writer here (topk.go). Producer and consumer alias
// these types instead of re-declaring inline structs, so the two sides
// of the wire cannot drift apart silently. No body carries a counter:
// /v1/stats says what is served, and every counter is read from the
// Prometheus families on /metrics (internal/obs).
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
// accuracy metrics against exact PageRank of the same graph, the
// reference Against names.
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

// StatsResponse is the single-node /v1/stats body: which snapshot is
// served, from what, over which graph. Counters are on /metrics.
type StatsResponse struct {
	Epoch        uint64     `json:"epoch"`
	Engine       Engine     `json:"engine"`
	Seed         uint64     `json:"seed"`
	BuiltAt      time.Time  `json:"builtAt"`
	BuildSeconds float64    `json:"buildSeconds"`
	MaxK         int        `json:"maxK"`
	Graph        GraphStats `json:"graph"`
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

// RouterStatsResponse is the router's /v1/stats body: the epoch,
// engine and seed the shards serve, and a row per shard. Counters are
// on /metrics.
type RouterStatsResponse struct {
	Epoch  uint64        `json:"epoch"`
	Engine Engine        `json:"engine"`
	Seed   uint64        `json:"seed"`
	Shards []ShardStatus `json:"shards"`
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
