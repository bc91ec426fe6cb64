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
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

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
// (every member but v, op and shard is omitted when zero). The decoder
// accepts those bytes and nothing else, so a member added or removed is
// a new api.Version. The benchmark's span tracer and encoding/json
// peers read the same bytes; the tests hold the decoder to
// encoding/json and the written frames to testdata/frames.golden.

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

// writeRequest encodes req and writes it as one length-prefixed frame
// in a single Write, returning the bytes put on the wire (prefix
// included): the number the traffic meters record.
func (f *frameBuf) writeRequest(w io.Writer, req *request) (int, error) {
	return f.write(w, req)
}

// writeResponse is writeRequest for a response. Like encoding/json it
// refuses a NaN or infinite number.
func (f *frameBuf) writeResponse(w io.Writer, resp *response) (int, error) {
	return f.write(w, resp)
}

// write marshals v behind its length prefix in buf and writes the frame.
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

// readRequest reads one length-prefixed frame into req, returning the
// total bytes taken off the wire.
func (f *frameBuf) readRequest(r io.Reader, req *request) (int, error) {
	defer f.trim()
	payload, n, err := f.recv(r)
	if err != nil {
		return n, err
	}
	return n, decodeRequest(payload, req)
}

// readResponse is readRequest for a response.
func (f *frameBuf) readResponse(r io.Reader, resp *response) (int, error) {
	defer f.trim()
	payload, n, err := f.recv(r)
	if err != nil {
		return n, err
	}
	return n, decodeResponse(payload, resp)
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

// The decoder reads exactly what encoding/json writes for request and
// response: members in field order, no whitespace, names matched byte
// for byte, v, op and shard required and every other member present or
// absent; strings with encoding/json's escapes (\" \\ \b \f \n \r \t and
// any non-surrogate \uXXXX, otherwise raw valid UTF-8); numbers by the
// JSON grammar. It reads front to back in one pass without recursion,
// and encoding/json decodes every frame it accepts to the same struct.

// rowOpen starts every entry, so counting it bounds an entries slice.
var rowOpen = []byte(`{"vertex":`)

// errMalformed is a decode failure. The frame was read whole, so the
// stream is still in step after it.
var errMalformed = errors.New("router: frame decode: malformed frame")

// decodeRequest decodes one request payload.
func decodeRequest(payload []byte, req *request) error {
	*req = request{}
	d := decoder{b: payload}
	d.expect(`{"v":`)
	req.V = d.int()
	d.expect(`,"op":`)
	req.Op = string(d.str())
	if d.member(`,"k":`) {
		req.K = d.int()
	}
	if d.member(`,"vertex":`) {
		req.Vertex = uint32(d.uint(32))
	}
	if d.member(`,"epoch":`) {
		req.Epoch = d.uint(64)
	}
	if d.member(`,"rid":`) {
		req.Rid = string(d.str())
	}
	return d.finish()
}

// decodeResponse decodes one response payload.
func decodeResponse(payload []byte, resp *response) error {
	*resp = response{}
	d := decoder{b: payload}
	d.expect(`{"v":`)
	resp.V = d.int()
	d.expect(`,"shard":`)
	resp.Shard = d.int()
	if d.member(`,"code":`) {
		resp.Code = string(d.str())
	}
	if d.member(`,"error":`) {
		resp.Err = string(d.str())
	}
	if d.member(`,"epoch":`) {
		resp.Epoch = d.uint(64)
	}
	if d.member(`,"engine":`) {
		resp.Engine = api.Engine(d.str())
	}
	if d.member(`,"seed":`) {
		resp.Seed = d.uint(64)
	}
	if d.member(`,"entries":[`) {
		resp.Entries = d.entries()
	}
	resp.Owned = d.member(`,"owned":true`)
	if d.member(`,"rank":`) {
		resp.Rank = d.float()
	}
	if d.member(`,"ownedCount":`) {
		resp.OwnedCount = d.int()
	}
	if d.member(`,"shards":`) {
		resp.Shards = d.int()
	}
	if d.member(`,"snapshotAge":`) {
		resp.SnapshotAge = d.float()
	}
	return d.finish()
}

// decoder is the cursor of one decode. The first byte out of place sets
// err and moves the cursor to the end; every method is then a no-op
// returning zero, so callers check once, in finish.
type decoder struct {
	b   []byte
	i   int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at offset %d", errMalformed, d.i)
		d.i = len(d.b)
	}
}

// member consumes lit if the payload continues with it.
func (d *decoder) member(lit string) bool {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return false
	}
	d.i += len(lit)
	return true
}

// expect consumes lit, which must come next.
func (d *decoder) expect(lit string) {
	if !d.member(lit) {
		d.fail()
	}
}

// finish closes the object and reports the first error, or bytes after
// the object.
func (d *decoder) finish() error {
	if d.expect("}"); d.i < len(d.b) {
		d.fail()
	}
	return d.err
}

// str reads a string and returns its bytes: a slice of the payload
// when it holds no escape.
func (d *decoder) str() []byte {
	d.expect(`"`)
	var out []byte // non-nil from the first escape on
	for start := d.i; d.i < len(d.b); {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if out == nil {
				return d.b[start : d.i-1]
			}
			return append(out, d.b[start:d.i-1]...)
		case c == '\\':
			out = append(out, d.b[start:d.i]...)
			if out = d.escape(out); d.err != nil {
				return nil
			}
			start = d.i
		case c < ' ':
			d.fail()
			return nil
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.fail()
				return nil
			}
			d.i += size
		}
	}
	d.fail()
	return nil
}

// escape resolves the escape at the cursor, appending it to out.
func (d *decoder) escape(out []byte) []byte {
	if d.i+2 > len(d.b) {
		d.fail()
		return nil
	}
	e := d.b[d.i+1]
	d.i += 2
	switch e {
	case '"', '\\':
		return append(out, e)
	case 'b':
		return append(out, '\b')
	case 'f':
		return append(out, '\f')
	case 'n':
		return append(out, '\n')
	case 'r':
		return append(out, '\r')
	case 't':
		return append(out, '\t')
	case 'u':
		if d.i+4 <= len(d.b) {
			r, err := strconv.ParseUint(string(d.b[d.i:d.i+4]), 16, 16)
			if err == nil && (r < 0xD800 || r > 0xDFFF) {
				d.i += 4
				return utf8.AppendRune(out, rune(r))
			}
		}
	}
	d.fail()
	return nil
}

// number reads a number literal by the JSON grammar.
func (d *decoder) number() []byte {
	start := d.i
	d.member("-")
	if !d.member("0") && !d.digits() {
		d.fail()
	}
	if d.member(".") && !d.digits() {
		d.fail()
	}
	if d.member("e") || d.member("E") {
		if !d.member("+") {
			d.member("-")
		}
		if !d.digits() {
			d.fail()
		}
	}
	if d.err != nil {
		return nil
	}
	return d.b[start:d.i]
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *decoder) int() int {
	v, err := strconv.ParseInt(string(d.number()), 10, strconv.IntSize)
	if err != nil {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) uint(bits int) uint64 {
	v, err := strconv.ParseUint(string(d.number()), 10, bits)
	if err != nil {
		d.fail()
		return 0
	}
	return v
}

func (d *decoder) float() float64 {
	v, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail()
		return 0
	}
	return v
}

// entries reads the rows of an entries array whose bracket is open,
// then its closing bracket: {"vertex":…,"score":…} each, as
// encoding/json writes a topk.Entry, comma-separated, at least one. The
// allocation is bounded by the payload: one entry per row opening left
// in it at most.
func (d *decoder) entries() []topk.Entry {
	out := make([]topk.Entry, 0, bytes.Count(d.b[d.i:], rowOpen))
	for {
		var e topk.Entry
		d.expect(`{"vertex":`)
		e.Vertex = uint32(d.uint(32))
		d.expect(`,"score":`)
		e.Score = d.float()
		d.expect("}")
		if d.err != nil {
			return nil
		}
		out = append(out, e)
		if !d.member(",") {
			break
		}
	}
	d.expect("]")
	return out
}
