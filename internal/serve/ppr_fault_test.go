package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/serve/api"
)

// faultPager is a graph.AdjPager over resident arrays whose cursors
// panic on the Nth element read after Arm(N) — with an I/O error, the
// way gstore's file cursor surfaces a failed page read, or, when bug is
// set, with the runtime error of an out-of-range index — and are
// healthy again afterwards.
type faultPager struct {
	out, in   []graph.VertexID
	countdown atomic.Int64
	bug       bool
}

func (p *faultPager) Arm(n int64)                 { p.countdown.Store(n) }
func (p *faultPager) NewCursor() graph.AdjCursor  { return faultCursor{p} }
func (p *faultPager) Stats() graph.PageCacheStats { return graph.PageCacheStats{} }
func (p *faultPager) Close() error                { return nil }

type faultCursor struct{ p *faultPager }

func (c faultCursor) Out(i int64) graph.VertexID {
	if c.p.countdown.Add(-1) == 0 {
		if c.p.bug {
			i = int64(len(c.p.out))
		} else {
			panic(errors.New("injected EIO"))
		}
	}
	return c.p.out[i]
}
func (c faultCursor) OutRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	return append(dst, c.p.out[lo:hi]...)
}
func (c faultCursor) InRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	return append(dst, c.p.in[lo:hi]...)
}
func (c faultCursor) OutPage(i int64) int64 { return i / 1024 }
func (c faultCursor) Release()              {}

// TestPPRWalkFaultAnswersUnavailable injects a failed adjacency read
// under the batcher: the faulted request answers the 503 unavailable
// envelope and is counted, the process and the batcher carry on (no
// task stays joinable, no waiter hangs), a concurrent request whose
// walks are healthy still gets its 200, and once the fault clears the
// very same request succeeds with the body a healthy server serves.
func TestPPRWalkFaultAnswersUnavailable(t *testing.T) {
	opts := PPROptions{WalksPerSource: 300, Workers: 2}
	healthy, snap := pprServer(t, opts)
	csr := snap.Graph.CSRView()
	pager := &faultPager{out: csr.OutAdj, in: csr.InAdj}
	fg, err := graph.FromPagedCSR(graph.PagedCSR{
		NumVertices: csr.NumVertices, NumEdges: csr.NumEdges(),
		OutOff: csr.OutOff, InOff: csr.InOff, Pager: pager,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty := *snap
	faulty.Graph = fg
	store := NewStore()
	store.Publish(&faulty)
	srv := NewServer(store, ServerOptions{PPR: opts})

	wantUnavailable := func(code int, body []byte) {
		t.Helper()
		var env api.Error
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("envelope decode: %v (body %q)", err, body)
		}
		if code != http.StatusServiceUnavailable || env.Code != api.CodeUnavailable || env.Epoch != 1 || env.Message == "" {
			t.Fatalf("faulted request answered %d %+v, want 503 %s at epoch 1", code, env, api.CodeUnavailable)
		}
		if strings.Contains(env.Message, "EIO") {
			t.Fatalf("the fault's cause leaked into the client's body: %q", env.Message)
		}
	}
	wantHealthy := func(url string, code int, body []byte) {
		t.Helper()
		if _, want := getPPR(t, healthy, url); code != http.StatusOK || string(body) != string(want) {
			t.Fatalf("GET %s: status %d, body differs from a healthy server's: %s", url, code, body)
		}
	}

	const url = "/v1/ppr?source=7&k=10"
	pager.Arm(50)
	code, body := getPPR(t, srv, url)
	wantUnavailable(code, body)
	if got := srv.ppr.batcher.faults.Value(); got != 1 {
		t.Fatalf("ppr_walk_faults_total %d, want 1", got)
	}
	if n := len(srv.ppr.batcher.tasks); n != 0 || srv.ppr.batcher.pending != nil {
		t.Fatalf("%d tasks still joinable after the fault (pending %v): an idle batcher must hold on to nothing", n, srv.ppr.batcher.pending)
	}
	// The fault cleared: the same request recomputes (errors are not
	// cached) and succeeds.
	code, body = getPPR(t, srv, url)
	wantHealthy(url, code, body)

	// Two concurrent requests, one fault: exactly one of them fails. (A
	// fault fails the whole kernel call it hits; with two workers the
	// two tasks are never in the same call.)
	urls := []string{"/v1/ppr?source=11&k=10", "/v1/ppr?source=13&k=10"}
	codes := make([]int, len(urls))
	bodies := make([][]byte, len(urls))
	pager.Arm(50)
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i] = getPPR(t, srv, u)
		}()
	}
	wg.Wait()
	failed := 0
	if codes[1] != http.StatusOK {
		failed = 1
	}
	if codes[0] == codes[1] {
		t.Fatalf("statuses %v: want exactly one faulted request", codes)
	}
	wantUnavailable(codes[failed], bodies[failed])
	wantHealthy(urls[1-failed], codes[1-failed], bodies[1-failed])
	code, body = getPPR(t, srv, urls[failed])
	wantHealthy(urls[failed], code, body)
	if got := srv.ppr.batcher.faults.Value(); got != 2 {
		t.Fatalf("ppr_walk_faults_total %d, want 2", got)
	}

	// The embedding facade reports the fault as an error too.
	pager.Arm(50)
	if _, _, err := PPRTopK(&faulty, []graph.VertexID{7}, 10, opts); !errors.Is(err, errPPRWalkFault) {
		t.Fatalf("PPRTopK over a failing read returned %v, want a walk fault", err)
	}

	// Only a storage fault is recovered: a runtime error under the walk
	// (corrupt adjacency, a kernel bug) is not retryable and propagates.
	pager.bug = true
	pager.Arm(50)
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Fatal("an out-of-range read under the walk did not propagate as a runtime error")
		}
		if got := srv.ppr.batcher.faults.Value(); got != 2 {
			t.Fatalf("ppr_walk_faults_total %d after a bug, want 2", got)
		}
	}()
	PPRTopK(&faulty, []graph.VertexID{7}, 10, opts)
}
