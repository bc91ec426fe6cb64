// Package router is the sharded serving plane: ShardServer owns the
// vertices v with v % shards == id and answers partial top-k/rank
// queries over a small length-prefixed RPC protocol; Router is the
// HTTP front that asks a vertex's owner alone for its rank, fans a
// top-k out to every shard, merges the partial top-k lists exactly
// through internal/topk's total order, keeps the merged list of the
// epoch it last confirmed, the ranks it last saw at that epoch and the
// last status probe so that most queries need no RPC at all, and
// degrades gracefully — per-shard timeout and retry, a consistent
// older epoch when shards straddle a refresh, and that kept list when a
// shard is down — instead of failing queries.
//
// The transport is pluggable (any net.Conn): tests drive shards over
// net.Pipe for determinism, deployments over TCP. Every byte crossing
// a shard connection is counted, so the paper's inter-machine traffic
// claims are measured on a real wire.
package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/serve/api"
	"repro/internal/topk"
)

// RPC operations. One status op serves both health checks and stats
// aggregation: shard liveness, epoch and counters come back in a
// single frame.
const (
	opTopK   = "topk"
	opRank   = "rank"
	opStatus = "status"
)

// maxFrame bounds one frame's payload so a corrupt or hostile length
// prefix cannot drive a giant allocation (same discipline as
// internal/secfile's schema-bounded sections).
const maxFrame = 1 << 26

// maxRetainedBuf bounds the frame buffer a connection keeps between
// RPCs: one huge-k answer must not pin megabytes on every pooled
// connection for the life of the process.
const maxRetainedBuf = 64 << 10

// A frame is a 4-byte big-endian payload length followed by the payload:
// one JSON object, what encoding/json writes for request or response
// (every member but v, op and shard is omitted when zero), and read back
// by encoding/json, so a peer may send whitespace, any member order and
// members this version does not declare, which are ignored. A member
// added, removed or changed in meaning is still a new api.Version: the
// v check on both ends refuses the other generation by name, but a
// member whose JSON type changed fails to decode first, and the reader
// drops the connection as for any malformed frame. The
// benchmark's span tracer reads the same bytes; the tests hold the
// written frames to testdata/frames.golden.

// request is one RPC query. V carries the shared wire version
// (api.Version); a shard refuses mismatched requests, so a
// mixed-version cluster fails loudly at the first query.
type request struct {
	V  int    `json:"v"`
	Op string `json:"op"`
	// K is the partial top-k size (opTopK).
	K int `json:"k,omitempty"`
	// Vertex is the rank query target (opRank).
	Vertex uint32 `json:"vertex,omitempty"`
	// Epoch pins the snapshot to answer from; 0 means the shard's
	// current. The router sets it when re-issuing a query at an older
	// epoch because the shards straddle a refresh.
	Epoch uint64 `json:"epoch,omitempty"`
	// Rid is the propagated request id: the router forwards the HTTP
	// request's X-Request-Id here so shard-side request logs carry the
	// same id as the router's.
	Rid string `json:"rid,omitempty"`
}

// response is one RPC answer. Code/Err report shard-side failure using
// the shared api error vocabulary; all other fields are op-specific.
type response struct {
	V     int    `json:"v"`
	Shard int    `json:"shard"`
	Code  string `json:"code,omitempty"`
	Err   string `json:"error,omitempty"`
	// Epoch is the snapshot epoch the answer was computed from.
	Epoch  uint64     `json:"epoch,omitempty"`
	Engine api.Engine `json:"engine,omitempty"`
	Seed   uint64     `json:"seed,omitempty"`
	// Entries is the shard's partial top-k over its owned vertices
	// (opTopK), sorted in topk's total order. A shard answers with a
	// prefix of its per-epoch index, so the slice is read-only.
	Entries []topk.Entry `json:"entries,omitempty"`
	// Owned and Rank answer opRank: Owned says whether this shard
	// owns the vertex, which is in the graph (exactly one shard does).
	Owned bool    `json:"owned,omitempty"`
	Rank  float64 `json:"rank,omitempty"`
	// OwnedCount, Shards and SnapshotAge answer opStatus.
	// Shards is the shard count the shard was started with, so the
	// router can check it against its own list. SnapshotAge is seconds
	// since the shard's current snapshot was built, so the router can
	// tell a lagging shard from a freshly booted one.
	OwnedCount  int     `json:"ownedCount,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	SnapshotAge float64 `json:"snapshotAge,omitempty"`
}

// errResponse builds a shard-side failure answer.
func errResponse(shard int, code, format string, args ...any) response {
	return response{V: api.Version, Shard: shard, Code: code, Err: fmt.Sprintf(format, args...)}
}

// frameBuf is one connection's frame buffer. A connection carries one
// RPC at a time, so the same bytes hold the outgoing frame and then the
// incoming one; decoded values never alias it.
type frameBuf struct {
	buf []byte
	// prefix receives a frame's length; a local array would escape
	// through the io.Reader and cost an allocation per frame.
	prefix [4]byte
}

// trim drops a buffer grown past maxRetainedBuf instead of keeping it
// for the next frame.
func (f *frameBuf) trim() {
	if cap(f.buf) > maxRetainedBuf {
		f.buf = nil
	}
}

// write marshals v, a *request or a *response, behind its length prefix
// and writes the frame in a single Write, returning the bytes put on the
// wire (prefix included): the number the traffic meters record. Like
// encoding/json it refuses a NaN or infinite number.
func (f *frameBuf) write(w io.Writer, v any) (int, error) {
	defer f.trim()
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("router: frame %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	f.buf = append(binary.BigEndian.AppendUint32(f.buf[:0], uint32(len(payload))), payload...)
	return w.Write(f.buf)
}

// read reads one length-prefixed frame and decodes it into v, a
// *request or a *response, returning the total bytes taken off the
// wire. encoding/json keeps what a frame omits, so v is zeroed first.
// Only an array can make encoding/json reserve many times a payload's
// bytes. A response payload that holds one is refused before anything
// is decoded if it has more than a comma per 8 bytes, commas in strings
// not counted; a frame this package writes has fewer, as a row spends
// two in 23 bytes. Otherwise its entries are reserved at one row more
// than its commas, as every row after the first follows one, so
// decoding never grows them.
func (f *frameBuf) read(r io.Reader, v any) (int, error) {
	defer f.trim()
	payload, n, err := f.recv(r)
	if err != nil {
		return n, err
	}
	switch v := v.(type) {
	case *request:
		*v = request{}
	case *response:
		var entries []topk.Entry
		if bytes.IndexByte(payload, '[') >= 0 {
			commas := commasOutsideStrings(payload)
			if commas > len(payload)/8 {
				return n, fmt.Errorf("router: frame decode: %d commas in %d bytes", commas, len(payload))
			}
			entries = make([]topk.Entry, 0, commas+1)
		}
		*v = response{Entries: entries}
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return n, fmt.Errorf("router: frame decode: %w", err)
	}
	return n, nil
}

// commasOutsideStrings counts the commas of b that separate JSON
// values. On bytes that are not JSON the count means nothing, and
// json.Unmarshal refuses them before it decodes anything.
func commasOutsideStrings(b []byte) int {
	n, inString := 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString && c == '\\':
			i++ // the escaped byte cannot end the string
		case c == '"':
			inString = !inString
		case c == ',' && !inString:
			n++
		}
	}
	return n
}

// recv reads one frame's payload into buf. The buffer grows as the
// bytes arrive, a step of maxRetainedBuf at a time, so a hostile
// prefix alone cannot make a connection allocate maxFrame.
func (f *frameBuf) recv(r io.Reader) (payload []byte, n int, err error) {
	prefix := f.prefix[:]
	if _, err := io.ReadFull(r, prefix); err != nil {
		return nil, 0, err
	}
	size := binary.BigEndian.Uint32(prefix)
	if size > maxFrame {
		return nil, len(prefix), fmt.Errorf("router: frame length %d exceeds limit %d", size, maxFrame)
	}
	payload = f.buf[:0]
	for have := 0; have < int(size); have = len(payload) {
		payload = slices.Grow(payload, min(int(size)-have, maxRetainedBuf))
		payload = payload[:min(int(size), cap(payload))]
		f.buf = payload
		if got, err := io.ReadFull(r, payload[have:]); err != nil {
			return nil, len(prefix) + have + got, fmt.Errorf("router: short frame: %w", err)
		}
	}
	return payload, len(prefix) + int(size), nil
}
