// Package router is the sharded serving plane: ShardServer owns the
// vertices v with v % shards == id and answers partial top-k/rank
// queries over a small length-prefixed RPC protocol; Router is the
// HTTP front that asks a vertex's owner alone for its rank, fans a
// top-k out to every shard, merges the partial top-k lists exactly
// through internal/topk's total order, keeps the merged list of the
// epoch it last confirmed so that most queries need no fan-out at all,
// and degrades gracefully — per-shard timeout and retry, a consistent
// older epoch when shards straddle a refresh, and that kept list when a
// shard is down — instead of failing queries.
//
// The transport is pluggable (any net.Conn): tests drive shards over
// net.Pipe for determinism, deployments over TCP. Every byte crossing
// a shard connection is counted, so the paper's inter-machine traffic
// claims are measured on a real wire (Router.Meter exposes the counts
// as an internal/cluster machine meter).
package router

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
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

// maxSkipDepth bounds the nesting the decoder follows inside a field it
// does not know, so a hostile frame cannot exhaust the stack.
const maxSkipDepth = 32

// A frame is a 4-byte big-endian payload length followed by the payload:
// one JSON object, byte for byte what encoding/json produces for these
// structs with the member names given below (every member but v, op and
// shard is omitted when zero). Mixed-version clusters and the
// benchmark's span tracer read those bytes, so the codec below is
// hand-written for speed only; the tests hold it to encoding/json.

// request is one RPC query. V carries the shared wire version
// (api.Version); a shard refuses mismatched requests, so a
// mixed-version cluster fails loudly at the first query.
type request struct {
	V  int    // "v"
	Op string // "op"
	// K is the partial top-k size (opTopK).
	K int // "k"
	// Vertex is the rank query target (opRank).
	Vertex uint32 // "vertex"
	// Epoch pins the snapshot to answer from; 0 means the shard's
	// current. The router sets it when re-issuing a query at an older
	// epoch because the shards straddle a refresh.
	Epoch uint64 // "epoch"
	// Rid is the propagated request id: the router forwards the HTTP
	// request's X-Request-Id here so shard-side request logs carry the
	// same id as the router's (additive, so no version bump).
	Rid string // "rid"
}

// response is one RPC answer. Code/Err report shard-side failure using
// the shared api error vocabulary; all other fields are op-specific.
type response struct {
	V     int    // "v"
	Shard int    // "shard"
	Code  string // "code"
	Err   string // "error"
	// Epoch is the snapshot epoch the answer was computed from.
	Epoch  uint64     // "epoch"
	Engine api.Engine // "engine"
	Seed   uint64     // "seed"
	// Entries is the shard's partial top-k over its owned vertices
	// (opTopK), sorted in topk's total order; each is
	// {"vertex":…,"score":…}. A shard answers with a prefix of its
	// per-epoch index, so the slice is read-only.
	Entries []topk.Entry // "entries"
	// Owned and Rank answer opRank: Owned says whether this shard
	// owns the vertex, which is in the graph (exactly one shard does).
	Owned bool    // "owned"
	Rank  float64 // "rank"
	// OwnedCount, Shards, Queries and SnapshotAge answer opStatus.
	// Shards is the shard count the shard was started with, so the
	// router can check it against its own list. SnapshotAge is seconds
	// since the shard's current snapshot was built, so the router can
	// tell a lagging shard from a freshly booted one.
	OwnedCount  int     // "ownedCount"
	Shards      int     // "shards"
	Queries     uint64  // "queries"
	SnapshotAge float64 // "snapshotAge"
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
	f.buf = appendRequest(append(f.buf[:0], 0, 0, 0, 0), req)
	return f.send(w)
}

// writeResponse is writeRequest for a response.
func (f *frameBuf) writeResponse(w io.Writer, resp *response) (int, error) {
	var err error
	if f.buf, err = appendResponse(append(f.buf[:0], 0, 0, 0, 0), resp); err != nil {
		return 0, err
	}
	return f.send(w)
}

// send fills in the length prefix of the frame built in buf and writes
// it.
func (f *frameBuf) send(w io.Writer) (int, error) {
	defer f.trim()
	payload := len(f.buf) - 4
	if payload > maxFrame {
		return 0, fmt.Errorf("router: frame %d bytes exceeds limit %d", payload, maxFrame)
	}
	binary.BigEndian.PutUint32(f.buf, uint32(payload))
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

// appendRequest appends req as encoding/json would marshal it.
func appendRequest(b []byte, req *request) []byte {
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(req.V), 10)
	b = append(b, `,"op":`...)
	b = appendString(b, req.Op)
	if req.K != 0 {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(req.K), 10)
	}
	if req.Vertex != 0 {
		b = append(b, `,"vertex":`...)
		b = strconv.AppendUint(b, uint64(req.Vertex), 10)
	}
	if req.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, req.Epoch, 10)
	}
	if req.Rid != "" {
		b = append(b, `,"rid":`...)
		b = appendString(b, req.Rid)
	}
	return append(b, '}')
}

// appendResponse appends resp as encoding/json would marshal it; like
// encoding/json it refuses a NaN or infinite number.
func appendResponse(b []byte, resp *response) ([]byte, error) {
	var err error
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(resp.V), 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(resp.Shard), 10)
	if resp.Code != "" {
		b = append(b, `,"code":`...)
		b = appendString(b, resp.Code)
	}
	if resp.Err != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, resp.Err)
	}
	if resp.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, resp.Epoch, 10)
	}
	if resp.Engine != "" {
		b = append(b, `,"engine":`...)
		b = appendString(b, string(resp.Engine))
	}
	if resp.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendUint(b, resp.Seed, 10)
	}
	if len(resp.Entries) != 0 {
		b = append(b, `,"entries":[`...)
		if b, err = api.AppendTopKRows(b, resp.Entries); err != nil {
			return b, err
		}
		b = append(b, ']')
	}
	if resp.Owned {
		b = append(b, `,"owned":true`...)
	}
	if resp.Rank != 0 {
		b = append(b, `,"rank":`...)
		if b, err = api.AppendFloat(b, resp.Rank); err != nil {
			return b, err
		}
	}
	if resp.OwnedCount != 0 {
		b = append(b, `,"ownedCount":`...)
		b = strconv.AppendInt(b, int64(resp.OwnedCount), 10)
	}
	if resp.Shards != 0 {
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(resp.Shards), 10)
	}
	if resp.Queries != 0 {
		b = append(b, `,"queries":`...)
		b = strconv.AppendUint(b, resp.Queries, 10)
	}
	if resp.SnapshotAge != 0 {
		b = append(b, `,"snapshotAge":`...)
		if b, err = api.AppendFloat(b, resp.SnapshotAge); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's
// escaping: quote, backslash, control characters, the HTML characters
// <, > and &, U+2028, U+2029, and U+FFFD for each invalid UTF-8 byte.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// The decoder accepts a subset of what encoding/json accepts, and
// decodes every frame in that subset to the same struct: member names
// match as encoding/json matches them (exactly, else under Unicode case
// folding), unknown members are skipped after checking their syntax, a
// known member given twice or as null is refused.

var (
	requestMembers  = [][]byte{[]byte("v"), []byte("op"), []byte("k"), []byte("vertex"), []byte("epoch"), []byte("rid")}
	responseMembers = [][]byte{[]byte("v"), []byte("shard"), []byte("code"), []byte("error"), []byte("epoch"),
		[]byte("engine"), []byte("seed"), []byte("entries"), []byte("owned"), []byte("rank"),
		[]byte("ownedCount"), []byte("shards"), []byte("queries"), []byte("snapshotAge")}
	entryMembers = [][]byte{[]byte("vertex"), []byte("score")}
	openBrace    = []byte{'{'}
)

// decodeRequest decodes one request payload.
func decodeRequest(payload []byte, req *request) error {
	*req = request{}
	s := scanner{b: payload}
	s.expect('{')
	var seen uint
	for n := 0; ; n++ {
		name, ok := s.member(n)
		if !ok {
			break
		}
		switch s.known(requestMembers, name, &seen) {
		case 0:
			req.V = s.int()
		case 1:
			req.Op = string(s.str())
		case 2:
			req.K = s.int()
		case 3:
			req.Vertex = uint32(s.uint(32))
		case 4:
			req.Epoch = s.uint(64)
		case 5:
			req.Rid = string(s.str())
		default:
			s.skip(0)
		}
	}
	return s.finish()
}

// decodeResponse decodes one response payload.
func decodeResponse(payload []byte, resp *response) error {
	*resp = response{}
	s := scanner{b: payload}
	s.expect('{')
	var seen uint
	for n := 0; ; n++ {
		name, ok := s.member(n)
		if !ok {
			break
		}
		switch s.known(responseMembers, name, &seen) {
		case 0:
			resp.V = s.int()
		case 1:
			resp.Shard = s.int()
		case 2:
			resp.Code = string(s.str())
		case 3:
			resp.Err = string(s.str())
		case 4:
			resp.Epoch = s.uint(64)
		case 5:
			resp.Engine = api.Engine(s.str())
		case 6:
			resp.Seed = s.uint(64)
		case 7:
			resp.Entries = s.entries()
		case 8:
			resp.Owned = s.bool()
		case 9:
			resp.Rank = s.float()
		case 10:
			resp.OwnedCount = s.int()
		case 11:
			resp.Shards = s.int()
		case 12:
			resp.Queries = s.uint(64)
		case 13:
			resp.SnapshotAge = s.float()
		default:
			s.skip(0)
		}
	}
	return s.finish()
}

// scanner reads JSON values off a payload. The first malformed byte
// sets err and moves the cursor to the end; every method is then a
// no-op returning zero, so callers check once, in finish.
type scanner struct {
	b   []byte
	i   int
	err error
}

func (s *scanner) fail() {
	if s.err == nil {
		s.err = fmt.Errorf("router: frame decode: malformed JSON at offset %d", s.i)
		s.i = len(s.b)
	}
}

// finish reports the first error, or trailing bytes after the value.
func (s *scanner) finish() error {
	if s.space(); s.i < len(s.b) {
		s.fail()
	}
	return s.err
}

// space skips whitespace and reports the byte at the cursor (0 at end).
func (s *scanner) space() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// accept consumes c if it is the next non-space byte.
func (s *scanner) accept(c byte) bool {
	if s.space() != c {
		return false
	}
	s.i++
	return true
}

func (s *scanner) expect(c byte) {
	if !s.accept(c) {
		s.fail()
	}
}

// member steps to member n of the object whose opening brace has been
// consumed and returns its unescaped name, the cursor on its value;
// ok is false once the closing brace is consumed.
func (s *scanner) member(n int) (name []byte, ok bool) {
	if !s.element(n, '}') {
		return nil, false
	}
	name = s.str()
	s.expect(':')
	return name, s.err == nil
}

// element steps to element n of an array (or member n of an object)
// closed by the given byte; false once that byte is consumed.
func (s *scanner) element(n int, closing byte) bool {
	if s.err != nil || s.accept(closing) {
		return false
	}
	if n > 0 {
		s.expect(',')
	}
	return s.err == nil
}

// known returns the index of name in members (-1 if absent), refusing a
// member already seen. No two member names of a frame are equal under
// folding, so one folding comparison finds what encoding/json's exact
// match followed by its folded match finds.
func (s *scanner) known(members [][]byte, name []byte, seen *uint) int {
	for i, want := range members {
		if bytes.EqualFold(name, want) {
			if *seen&(1<<i) != 0 {
				s.fail()
				return -1
			}
			*seen |= 1 << i
			return i
		}
	}
	return -1
}

// str reads a string and returns its unescaped bytes: a slice of the
// payload when it has no escape and no byte outside ASCII.
func (s *scanner) str() []byte {
	if !s.accept('"') {
		s.fail()
		return nil
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c == '\\' || c >= utf8.RuneSelf:
			return s.unescape(append([]byte(nil), s.b[start:s.i]...))
		case c < ' ':
			s.fail()
			return nil
		}
	}
	s.fail()
	return nil
}

// unescape finishes str on the slow path, appending to out: escapes are
// resolved, an unpaired surrogate and each invalid UTF-8 byte become
// U+FFFD, as in encoding/json.
func (s *scanner) unescape(out []byte) []byte {
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return out
		case c < ' ':
			s.fail()
			return nil
		case c == '\\':
			s.i += 2
			if s.i > len(s.b) {
				s.fail()
				return nil
			}
			switch e := s.b[s.i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := s.hex4(s.i)
				if r < 0 {
					s.fail()
					return nil
				}
				s.i += 4
				if utf16.IsSurrogate(r) {
					low := rune(-1)
					if s.i+2 <= len(s.b) && s.b[s.i] == '\\' && s.b[s.i+1] == 'u' {
						low = s.hex4(s.i + 2)
					}
					if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
						s.i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				s.fail()
				return nil
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			out = utf8.AppendRune(out, r)
			s.i += size
		}
	}
	s.fail()
	return nil
}

// hex4 reads four hex digits at offset i, -1 if they are not there.
func (s *scanner) hex4(i int) rune {
	if i+4 > len(s.b) {
		return -1
	}
	var r rune
	for _, c := range s.b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads a number literal by the JSON grammar.
func (s *scanner) number() []byte {
	s.space()
	start := s.i
	s.take('-')
	if !s.take('0') && !s.digits() {
		s.fail()
		return nil
	}
	if s.take('.') && !s.digits() {
		s.fail()
		return nil
	}
	if s.take('e') || s.take('E') {
		if !s.take('+') {
			s.take('-')
		}
		if !s.digits() {
			s.fail()
			return nil
		}
	}
	return s.b[start:s.i]
}

// take consumes c if it is the byte at the cursor.
func (s *scanner) take(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *scanner) int() int {
	v, err := strconv.ParseInt(string(s.number()), 10, strconv.IntSize)
	if err != nil {
		s.fail()
	}
	return int(v)
}

func (s *scanner) uint(bits int) uint64 {
	v, err := strconv.ParseUint(string(s.number()), 10, bits)
	if err != nil {
		s.fail()
	}
	return v
}

func (s *scanner) float() float64 {
	v, err := strconv.ParseFloat(string(s.number()), 64)
	if err != nil {
		s.fail()
	}
	return v
}

func (s *scanner) bool() bool {
	if s.space() == 't' {
		s.literal("true")
		return s.err == nil
	}
	s.literal("false")
	return false
}

func (s *scanner) literal(word string) {
	if !bytes.HasPrefix(s.b[s.i:], []byte(word)) {
		s.fail()
		return
	}
	s.i += len(word)
}

// entries reads an array of {"vertex":…,"score":…} objects. The
// allocation is bounded by the payload: one entry per opening brace
// left in it at most.
func (s *scanner) entries() []topk.Entry {
	s.expect('[')
	out := make([]topk.Entry, 0, bytes.Count(s.b[s.i:], openBrace))
	for n := 0; s.element(n, ']'); n++ {
		var e topk.Entry
		var seen uint
		s.expect('{')
		for m := 0; ; m++ {
			name, ok := s.member(m)
			if !ok {
				break
			}
			switch s.known(entryMembers, name, &seen) {
			case 0:
				e.Vertex = uint32(s.uint(32))
			case 1:
				e.Score = s.float()
			default:
				s.skip(1)
			}
		}
		out = append(out, e)
	}
	if s.err != nil {
		return nil
	}
	return out
}

// skip checks the syntax of one value of any type and steps past it.
func (s *scanner) skip(depth int) {
	if depth > maxSkipDepth {
		s.fail()
		return
	}
	switch s.space() {
	case '{':
		s.i++
		for n := 0; ; n++ {
			if _, ok := s.member(n); !ok {
				break
			}
			s.skip(depth + 1)
		}
	case '[':
		s.i++
		for n := 0; s.element(n, ']'); n++ {
			s.skip(depth + 1)
		}
	case '"':
		s.str()
	case 't':
		s.literal("true")
	case 'f':
		s.literal("false")
	case 'n':
		s.literal("null")
	default:
		s.number()
	}
}
