package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/router"
)

// The span recorders sit in the benchmark, at the layer boundaries the
// public API exposes: the client, a middleware around the http.Handler,
// a wrapped router.DialFunc whose net.Conn times each RPC, and a wrapped
// net.Listener under ShardServer.Serve. Spans of one request share the
// id the client sends as X-Request-Id, which the router forwards inside
// its RPC frames. Spans inside the program are a later change.

type spanKind uint8

const (
	spanClient        spanKind = iota // http.client: send to body drained (root)
	spanServeHandler                  // serve.handler: serve.Server's ServeHTTP
	spanRouterHandler                 // router.handler: router.Router's ServeHTTP
	spanRPC                           // router.rpc: frame written to response frame read, per shard
	spanShard                         // shard.handle: request frame read to response frame written
)

var spanNames = [...]string{"http.client", "serve.handler", "router.handler", "router.rpc", "shard.handle"}

// spanParent is the layer that causes each kind of span.
var spanParent = [...]int{-1, int(spanClient), int(spanClient), int(spanRouterHandler), int(spanRPC)}

type span struct {
	Kind  spanKind
	Shard int8   // -1 when the layer is not per shard
	Rid   uint64 // request id; 0 when the layer could not read one
	Start int64  // ns since the tracer's epoch
	End   int64
}

// tracer keeps spans in memory preallocated before the traced phase and
// writes them out when the benchmark ends.
type tracer struct {
	epoch   time.Time
	spans   []span
	on      atomic.Bool
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) add(kind spanKind, rid uint64, shard int, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{Kind: kind, Shard: int8(shard), Rid: rid,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
}

// record switches recording on or off; the warm-up and the output
// checker's own requests run with it off.
func (t *tracer) record(on bool) { t.on.Store(on) }

func (t *tracer) recorded() []span {
	return t.spans[:min(int(t.n.Load()), len(t.spans))]
}

// middleware times h as one span per request.
func (t *tracer) middleware(kind spanKind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, _ := strconv.ParseUint(r.Header.Get("X-Request-Id"), 16, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(kind, rid, -1, start, time.Now())
	})
}

// dial wraps a shard's DialFunc so each connection times its RPCs.
func (t *tracer) dial(shard int, d router.DialFunc) router.DialFunc {
	return func() (net.Conn, error) {
		c, err := d()
		if err != nil {
			return nil, err
		}
		return &rpcConn{Conn: c, t: t, shard: shard}, nil
	}
}

// listen wraps a shard's listener so each accepted connection times the
// shard's handling of every request frame.
func (t *tracer) listen(shard int, ln net.Listener) net.Listener {
	return &shardListener{Listener: ln, t: t, shard: shard}
}

var ridField = []byte(`"rid":"`)

// frameRid reads the request id out of a request frame's JSON without
// decoding it; 0 when the frame carries none.
func frameRid(p []byte) uint64 {
	i := bytes.Index(p, ridField)
	if i < 0 {
		return 0
	}
	p = p[i+len(ridField):]
	j := bytes.IndexByte(p, '"')
	if j < 0 {
		return 0
	}
	rid, _ := strconv.ParseUint(string(p[:j]), 16, 64)
	return rid
}

// frameMeter follows one length-prefixed frame through a series of
// Read or Write calls and reports when its last byte has passed.
type frameMeter struct {
	prefix [4]byte
	got    int
}

func (m *frameMeter) reset() { m.got = 0 }

// advance accounts for p and reports whether the frame is complete.
func (m *frameMeter) advance(p []byte) bool {
	if m.got < len(m.prefix) {
		copy(m.prefix[m.got:], p)
	}
	m.got += len(p)
	return m.got >= len(m.prefix) &&
		m.got >= len(m.prefix)+int(binary.BigEndian.Uint32(m.prefix[:]))
}

// rpcConn is the router's end of a shard connection. The client writes
// a whole request frame, then reads the response frame; one connection
// carries one RPC at a time.
type rpcConn struct {
	net.Conn
	t       *tracer
	shard   int
	rid     uint64
	start   time.Time
	pending bool
	resp    frameMeter
}

func (c *rpcConn) Write(p []byte) (int, error) {
	if !c.pending {
		c.rid, c.start, c.pending = frameRid(p), time.Now(), true
		c.resp.reset()
	}
	return c.Conn.Write(p)
}

func (c *rpcConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.pending && n > 0 && c.resp.advance(p[:n]) {
		c.t.add(spanRPC, c.rid, c.shard, c.start, time.Now())
		c.pending = false
	}
	return n, err
}

type shardListener struct {
	net.Listener
	t     *tracer
	shard int
}

func (l *shardListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &shardConn{Conn: c, t: l.t, shard: l.shard}, nil
}

// shardConn is the shard's end: a span runs from the arrival of a
// request frame to the last byte of its response frame.
type shardConn struct {
	net.Conn
	t     *tracer
	shard int
	rid   uint64
	start time.Time
	busy  bool
	resp  frameMeter
}

func (c *shardConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.busy && n > 0 {
		c.rid, c.start, c.busy = frameRid(p[:n]), time.Now(), true
		c.resp.reset()
	}
	return n, err
}

func (c *shardConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.busy && n > 0 && c.resp.advance(p[:n]) {
		c.t.add(spanShard, c.rid, c.shard, c.start, time.Now())
		c.busy = false
	}
	return n, err
}

// writeJSONL writes one line per span: name, start and end in
// nanoseconds since the tracer was made, the request id, the span's own
// id and the id of the span that caused it.
func (t *tracer) writeJSONL(path string) error {
	spans := t.recorded()
	type key struct {
		kind  spanKind
		shard int8
		rid   uint64
	}
	first := make(map[key]int, len(spans))
	for i, s := range spans {
		k := key{s.Kind, s.Shard, s.Rid}
		if _, ok := first[k]; !ok {
			first[k] = i
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Parent *int   `json:"parent"`
		Rid    string `json:"rid"`
		Name   string `json:"name"`
		Shard  *int8  `json:"shard,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for i, s := range spans {
		l := line{ID: i, Rid: strconv.FormatUint(s.Rid, 16), Name: spanNames[s.Kind], Start: s.Start, End: s.End}
		if s.Shard >= 0 {
			l.Shard = &s.Shard
		}
		if pk := spanParent[s.Kind]; pk >= 0 && s.Rid != 0 {
			k := key{spanKind(pk), -1, s.Rid}
			if spanKind(pk) == spanRPC {
				k.shard = s.Shard
			}
			if p, ok := first[k]; ok {
				l.Parent = &p
			}
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes reduces the spans to the ledger's live-span metrics: the
// median, over requests, of each layer's self time in microseconds.
func (t *tracer) selfTimes(m metricSet) {
	type req struct {
		client, handler     span
		hasClient, hasServe bool
		hasRouter           bool
		rpcs, shards        []span
	}
	reqs := make(map[uint64]*req)
	for _, s := range t.recorded() {
		if s.Rid == 0 {
			continue
		}
		r := reqs[s.Rid]
		if r == nil {
			r = &req{}
			reqs[s.Rid] = r
		}
		switch s.Kind {
		case spanClient:
			r.client, r.hasClient = s, true
		case spanServeHandler:
			r.handler, r.hasServe = s, true
		case spanRouterHandler:
			r.handler, r.hasRouter = s, true
		case spanRPC:
			r.rpcs = append(r.rpcs, s)
		case spanShard:
			r.shards = append(r.shards, s)
		}
	}
	var clientSelf, serveSelf, routerSelf, rpcSelf, skew, shardSelf []float64
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, r := range reqs {
		if !r.hasClient || !(r.hasServe || r.hasRouter) {
			continue
		}
		clientSelf = append(clientSelf, us(r.client.End-r.client.Start-(r.handler.End-r.handler.Start)))
		if r.hasServe {
			serveSelf = append(serveSelf, us(r.handler.End-r.handler.Start))
			continue
		}
		routerSelf = append(routerSelf, us(r.handler.End-r.handler.Start-covered(r.rpcs)))
		lo, hi := int64(-1), int64(0)
		for _, rpc := range r.rpcs {
			d := rpc.End - rpc.Start
			if lo < 0 || d < lo {
				lo = d
			}
			hi = max(hi, d)
			for _, sh := range r.shards {
				if sh.Shard == rpc.Shard && sh.Start >= rpc.Start && sh.End <= rpc.End {
					rpcSelf = append(rpcSelf, us(d-(sh.End-sh.Start)))
					break
				}
			}
		}
		if len(r.rpcs) > 1 {
			skew = append(skew, us(hi-lo))
		}
		for _, sh := range r.shards {
			shardSelf = append(shardSelf, us(sh.End-sh.Start))
		}
	}
	m.set("http.client_self_us", median(clientSelf))
	m.set("serve.handler_self_us", median(serveSelf))
	m.set("router.handler_self_us", median(routerSelf))
	m.set("router.rpc_self_us", median(rpcSelf))
	m.set("router.fanout_skew_us", median(skew))
	m.set("shard.handle_self_us", median(shardSelf))
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	s := slices.Clone(spans)
	slices.SortFunc(s, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, end int64
	for i, sp := range s {
		if i == 0 || sp.Start > end {
			total += sp.End - sp.Start
			end = sp.End
		} else if sp.End > end {
			total += sp.End - end
			end = sp.End
		}
	}
	return total
}
