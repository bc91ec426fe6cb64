package main

import (
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The schedule generator, the latency recorder and the percentile rule
// live here and use only the standard library, so a change to
// internal/loadgen, internal/hist or internal/rng cannot alter the load
// or the ruler.

const (
	// numClients is the closed-loop client count: an API caller that waits
	// for its reply, on its own keep-alive connection. The measuring
	// process runs on one scheduler thread (see main.go), so a second
	// caller would add no throughput, only the time its requests queue
	// behind the first's: with one, a latency is a service time. It is the
	// same on both sides of any comparison.
	numClients = 1

	// keptBodies is how many responses of client 0 the output checker
	// re-derives after the timed phase.
	keptBodies = 256
)

type reqKind uint8

const (
	reqTopK reqKind = iota
	reqRank
	reqStats
	reqPPR
)

// request is one drawn query.
type request struct {
	Kind    reqKind
	K       int
	Vertex  uint32
	Sources []uint32 // reqPPR only, as drawn (the server canonicalizes)
}

func (r request) path() string {
	switch r.Kind {
	case reqTopK:
		return "/v1/topk?k=" + strconv.Itoa(r.K)
	case reqRank:
		return "/v1/rank?vertex=" + strconv.FormatUint(uint64(r.Vertex), 10)
	case reqStats:
		return "/v1/stats"
	}
	var b strings.Builder
	if len(r.Sources) == 1 {
		b.WriteString("/v1/ppr?source=")
	} else {
		b.WriteString("/v1/ppr?sources=")
	}
	for i, s := range r.Sources {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(s), 10))
	}
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(r.K))
	return b.String()
}

// streamKey folds a stream's name and index into the second PCG word.
func streamKey(name string, index int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64() + uint64(index)
}

// stream draws one client's requests lazily from its own PCG stream
// keyed by (seed, traffic family, client index). The two families are
// "snapshot" (topk 0.6 / rank 0.3 / stats 0.1) and "ppr" (95 % one
// source, 5 % four); workloads that share a family send byte-for-byte
// the same requests.
type stream struct {
	family string
	r      *rand.Rand
	k      *rand.Zipf // k-1 on [0,99]
	vertex *rand.Zipf // vertex on [0,n)
}

func newStream(seed uint64, family string, client, n int) *stream {
	r := rand.New(rand.NewPCG(seed, streamKey(family, client)))
	return &stream{
		family: family,
		r:      r,
		k:      rand.NewZipf(r, zipfS, 1, 99),
		vertex: rand.NewZipf(r, zipfS, 1, uint64(n-1)),
	}
}

func (s *stream) next() request {
	u := s.r.Float64()
	if s.family == "ppr" {
		req := request{Kind: reqPPR, Sources: []uint32{uint32(s.vertex.Uint64())}}
		if u >= 0.95 {
			for len(req.Sources) < 4 {
				req.Sources = append(req.Sources, uint32(s.vertex.Uint64()))
			}
		}
		req.K = 1 + int(s.k.Uint64())
		return req
	}
	switch {
	case u < 0.6:
		return request{Kind: reqTopK, K: 1 + int(s.k.Uint64())}
	case u < 0.9:
		return request{Kind: reqRank, Vertex: uint32(s.vertex.Uint64())}
	}
	return request{Kind: reqStats}
}

// exchange is a request of client 0 kept for the output checker.
type exchange struct {
	Req  request
	Body []byte
}

// client is one closed-loop caller: it owns a request stream and one
// keep-alive connection, and sends its next request only after the
// previous response body is fully drained.
type client struct {
	index  int
	stream *stream
	base   string
	hc     *http.Client
	tr     *tracer // nil on untraced runs

	seq  uint64
	kept []exchange

	// Filled while recording.
	lat    []int64 // ns, send to body drained
	marks  []int   // len(lat) when each slice of the phase ended
	failed int64
}

func newClient(index int, st *stream, base string, tr *tracer) *client {
	return &client{
		index:  index,
		stream: st,
		base:   base,
		tr:     tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
		lat: make([]int64, 0, 1<<16),
	}
}

// run sends requests for d from began. With record set the latencies
// and failures count, each latency in the slice its request completed
// in; otherwise the phase is warm-up.
func (c *client) run(began time.Time, d time.Duration, record bool) {
	until, slices := began.Add(d), sliceCount(d)
	for time.Now().Before(until) {
		req := c.stream.next()
		keep := c.index == 0 && len(c.kept) < keptBodies
		hreq, err := http.NewRequest(http.MethodGet, c.base+req.path(), nil)
		if err != nil {
			panic(err) // the URL is ours
		}
		c.seq++
		rid := uint64(c.index+1)<<48 | c.seq
		if c.tr != nil {
			hreq.Header.Set("X-Request-Id", strconv.FormatUint(rid, 16))
		}
		start := time.Now()
		body, ok := c.do(hreq, keep)
		end := time.Now()
		if c.tr != nil {
			c.tr.add(spanClient, rid, -1, start, end)
		}
		if keep {
			c.kept = append(c.kept, exchange{Req: req, Body: body})
		}
		if !record {
			continue
		}
		for len(c.marks) < slices && end.Sub(began) >= sliceEnd(d, len(c.marks)) {
			c.marks = append(c.marks, len(c.lat))
		}
		if ok {
			c.lat = append(c.lat, int64(end.Sub(start)))
		} else {
			c.failed++
		}
	}
	for record && len(c.marks) < slices {
		c.marks = append(c.marks, len(c.lat))
	}
}

// do performs one exchange; any transport error or non-200 is a
// failure. The body is returned only when asked for.
func (c *client) do(req *http.Request, keep bool) ([]byte, bool) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var body []byte
	if keep {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return body, err == nil && resp.StatusCode == http.StatusOK
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// slice is one cut of a timed phase: how long it lasted and the
// latencies of the operations that completed in it.
type slice struct {
	Seconds float64
	Lat     []int64
}

func (s slice) rate() float64 { return float64(len(s.Lat)) / s.Seconds }

// A serving phase is cut into slices of about sliceLen; a phase shorter
// than minSlices of them (the tests') into minSlices equal ones.
const (
	sliceLen  = time.Second
	minSlices = 4
)

func sliceCount(d time.Duration) int { return max(minSlices, int(d/sliceLen)) }

// sliceEnd is when slice i of a phase of length d ends, from its start.
func sliceEnd(d time.Duration, i int) time.Duration {
	return d * time.Duration(i+1) / time.Duration(sliceCount(d))
}

// phase is what one timed phase of a set of clients measured.
type phase struct {
	Seconds float64
	OK      int64
	Failed  int64
	Lat     []int64 // all clients' samples, unsorted
	Slices  []slice // the same samples by slice, in time order
}

func (p phase) qps() float64 { return float64(p.OK) / p.Seconds }

// add folds a later stretch of the same phase into p.
func (p *phase) add(q phase) {
	p.Seconds += q.Seconds
	p.OK += q.OK
	p.Failed += q.Failed
	p.Lat = append(p.Lat, q.Lat...)
	p.Slices = append(p.Slices, q.Slices...)
}

// drive runs every client for d and, when recording, returns what the
// phase measured; the clients keep their streams and connections for
// the next phase.
func drive(clients []*client, d time.Duration, record bool) phase {
	for _, c := range clients {
		c.lat, c.marks, c.failed = c.lat[:0], c.marks[:0], 0
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(start, d, record)
		}()
	}
	wg.Wait()
	p := phase{Seconds: time.Since(start).Seconds()}
	for _, c := range clients {
		p.OK += int64(len(c.lat))
		p.Failed += c.failed
		p.Lat = append(p.Lat, c.lat...)
	}
	if !record {
		return p
	}
	// A request still in flight when the phase ends completes in no
	// slice: it is in Lat and OK but in none of Slices.
	p.Slices = make([]slice, sliceCount(d))
	for i := range p.Slices {
		p.Slices[i].Seconds = (sliceEnd(d, i) - sliceEnd(d, i-1)).Seconds()
		for _, c := range clients {
			from := 0
			if i > 0 {
				from = c.marks[i-1]
			}
			p.Slices[i].Lat = append(p.Slices[i].Lat, c.lat[from:c.marks[i]]...)
		}
	}
	return p
}
