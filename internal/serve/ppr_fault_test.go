package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/serve/api"
)

// faultPager is a graph.AdjPager over resident arrays whose cursors
// behave like a one-frame cache of 1024-element pages (TryOut sees only
// the page the last Out read) and panic on the Nth loading read after
// Arm(N) — with an I/O error, the way gstore's file cursor surfaces a
// failed page read, or, when bug is set, with the runtime error of an
// out-of-range index — and are healthy again afterwards. After Stall(N)
// the Nth loading read blocks instead, like a read on a hung device,
// while every other read proceeds.
type faultPager struct {
	out, in   []graph.VertexID
	countdown atomic.Int64
	bug       bool

	stallIn          atomic.Int64
	stalled, release chan struct{}
}

func (p *faultPager) Arm(n int64) { p.countdown.Store(n) }

// Stall arms the one-shot stall: stalled is closed once the Nth loading
// read from now is blocked, and that read returns when release is closed.
func (p *faultPager) Stall(n int64) (stalled <-chan struct{}, release chan<- struct{}) {
	p.stalled, p.release = make(chan struct{}), make(chan struct{})
	p.stallIn.Store(n)
	return p.stalled, p.release
}

func (p *faultPager) NewCursor() graph.AdjCursor  { return &faultCursor{p: p, page: -1} }
func (p *faultPager) Stats() graph.PageCacheStats { return graph.PageCacheStats{} }
func (p *faultPager) Close() error                { return nil }

type faultCursor struct {
	p        *faultPager
	page     int64 // the one page "in memory"
	switches uint64
}

// load is one read that goes to storage: the armed one fails, the
// stalled one waits.
func (c *faultCursor) load(i int64) int64 {
	if c.p.stallIn.Add(-1) == 0 {
		close(c.p.stalled)
		<-c.p.release
	}
	if c.p.countdown.Add(-1) == 0 {
		c.page = -1 // a failed read leaves the cursor unpinned
		if !c.p.bug {
			panic(errors.New("injected EIO"))
		}
		return int64(len(c.p.out))
	}
	return i
}

func (c *faultCursor) Out(i int64) graph.VertexID {
	i = c.load(i)
	if page := c.OutPage(i); page != c.page {
		c.page = page
		c.switches++
	}
	return c.p.out[i]
}
func (c *faultCursor) TryOut(i int64) (graph.VertexID, bool) {
	if c.OutPage(i) != c.page {
		return 0, false
	}
	return c.p.out[i], true
}
func (c *faultCursor) OutRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	return append(dst, c.p.out[c.load(lo):hi]...)
}
func (c *faultCursor) InRange(lo, hi int64, dst []graph.VertexID) []graph.VertexID {
	return append(dst, c.p.in[c.load(lo):hi]...)
}
func (c *faultCursor) OutPage(i int64) int64 { return i / 1024 }
func (c *faultCursor) PageSwitches() uint64  { return c.switches }
func (c *faultCursor) Release()              { c.page = -1 }

// faultySnapshot is snap over a graph whose adjacency reads go through
// a faultPager.
func faultySnapshot(t *testing.T, snap *Snapshot) (*Snapshot, *faultPager) {
	t.Helper()
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
	return &faulty, pager
}

// wantUnavailable fails unless a response is the 503 unavailable
// envelope at epoch 1, with the fault's cause kept out of the body.
func wantUnavailable(t *testing.T, code int, body []byte) {
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

// TestPPRWalkFaultAnswersUnavailable injects a failed adjacency read
// under a request's walks: the faulted request answers the 503
// unavailable envelope and is counted, the process carries on (its slot
// is free again), a concurrent request — whose walks are its own kernel
// call — still gets its 200, and once the fault clears the very same
// request succeeds with the body a healthy server serves.
func TestPPRWalkFaultAnswersUnavailable(t *testing.T) {
	opts := PPROptions{WalksPerSource: 300}
	healthy, snap := pprServer(t, opts)
	faulty, pager := faultySnapshot(t, snap)
	store := NewStore()
	store.Publish(faulty)
	srv := NewServer(store, ServerOptions{PPR: opts})

	wantHealthy := func(url string, code int, body []byte) {
		t.Helper()
		if _, want := getPPR(t, healthy, url); code != http.StatusOK || string(body) != string(want) {
			t.Fatalf("GET %s: status %d, body differs from a healthy server's: %s", url, code, body)
		}
	}

	const url = "/v1/ppr?source=7&k=10"
	pager.Arm(50)
	code, body := getPPR(t, srv, url)
	wantUnavailable(t, code, body)
	if got := srv.ppr.faults.Value(); got != 1 {
		t.Fatalf("ppr_walk_faults_total %d, want 1", got)
	}
	if n := len(srv.ppr.slots); n != 0 {
		t.Fatalf("%d slots still taken after the fault: a failed walk must give its slot back", n)
	}
	// The fault cleared: the same request recomputes (errors are not
	// cached) and succeeds.
	code, body = getPPR(t, srv, url)
	wantHealthy(url, code, body)

	// Two concurrent requests, one fault: exactly one of them fails (a
	// fault fails the kernel call it hits, and every request is its own).
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
	wantUnavailable(t, codes[failed], bodies[failed])
	wantHealthy(urls[1-failed], codes[1-failed], bodies[1-failed])
	code, body = getPPR(t, srv, urls[failed])
	wantHealthy(urls[failed], code, body)
	if got := srv.ppr.faults.Value(); got != 2 {
		t.Fatalf("ppr_walk_faults_total %d, want 2", got)
	}

	// The embedding facade reports the fault as an error too.
	pager.Arm(50)
	if _, _, err := PPRTopK(faulty, []graph.VertexID{7}, 10, opts); !errors.Is(err, errStorageFault) {
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
		if got := srv.ppr.faults.Value(); got != 2 {
			t.Fatalf("ppr_walk_faults_total %d after a bug, want 2", got)
		}
	}()
	PPRTopK(faulty, []graph.VertexID{7}, 10, opts)
}

// TestPPRStalledRequestDoesNotBlockOthers: a request whose kernel call
// hangs on a read holds its own slot and nothing else — with a second
// slot free, a request for another source is answered, with the healthy
// body, while the first is still stalled; released, the first completes
// too.
func TestPPRStalledRequestDoesNotBlockOthers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 { // one slot per P, and the test needs two
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	opts := PPROptions{WalksPerSource: 300}
	healthy, snap := pprServer(t, opts)
	faulty, pager := faultySnapshot(t, snap)
	store := NewStore()
	store.Publish(faulty)
	srv := NewServer(store, ServerOptions{PPR: opts})

	const urlA, urlB = "/v1/ppr?source=7&k=10", "/v1/ppr?source=11&k=10"
	stalled, release := pager.Stall(50)
	doneA := make(chan string, 1)
	go func() {
		_, body := getPPR(t, srv, urlA)
		doneA <- string(body)
	}()
	<-stalled

	doneB := make(chan string, 1)
	go func() {
		_, body := getPPR(t, srv, urlB)
		doneB <- string(body)
	}()
	select {
	case got := <-doneB:
		if want := body(t, healthy, urlB); got != want {
			t.Errorf("GET %s beside a stalled request: body differs from a healthy server's: %s", urlB, got)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("GET %s waited for a stalled request on another source", urlB)
	}
	select {
	case got := <-doneA:
		t.Errorf("the stalled request answered before its read was released: %s", got)
	default:
	}
	close(release)
	if want := body(t, healthy, urlA); <-doneA != want {
		t.Errorf("GET %s after its read was released: body differs from a healthy server's", urlA)
	}
}

// TestCompareFaultAnswersUnavailable: a failed adjacency read under
// /v1/compare's reference run — on whichever pool worker it lands, at
// one P or four — is the 503 unavailable envelope for every request
// sharing the flight, not a panic; nothing is cached, and the retried
// request answers what a healthy server answers.
func TestCompareFaultAnswersUnavailable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		healthy, snap := pprServer(t, PPROptions{})
		faulty, pager := faultySnapshot(t, snap)
		store := NewStore()
		store.Publish(faulty)
		srv := NewServer(store, ServerOptions{})

		const url = "/v1/compare?engine=exact&k=10"
		pager.Arm(200)
		code, body := getPPR(t, srv, url)
		wantUnavailable(t, code, body)
		code, body = getPPR(t, srv, url)
		if _, want := getPPR(t, healthy, url); code != http.StatusOK || string(body) != string(want) {
			t.Fatalf("GOMAXPROCS=%d: retried compare answered %d %s, want a healthy server's %s", procs, code, body, want)
		}
	}
}

// TestBuildFaultInsideTheEngine: FrogWild's scatter reads the graph,
// so a failed paged read can land on one of the engine's machine
// goroutines. Armed to fail on the first read after ingress's (the
// partitioner's pass and the presence pass, one read per vertex each),
// a build returns an error wrapping errStorageFault instead of killing
// the process, at one P and at four; with storage healthy again the
// same build answers what it answers over the resident graph.
func TestBuildFaultInsideTheEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	_, snap := pprServer(t, PPROptions{})
	faulty, pager := faultySnapshot(t, snap)
	cfg := BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 3}
	want, err := Build(snap.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		pager.Arm(2*int64(faulty.Graph.NumVertices()) + 1)
		if _, err := Build(faulty.Graph, cfg); !errors.Is(err, errStorageFault) {
			t.Fatalf("GOMAXPROCS=%d: a build over a read failing inside the engine returned %v, want a storage fault", procs, err)
		}
		got, err := Build(faulty.Graph, cfg)
		if err != nil || !slices.Equal(got.Ranks, want.Ranks) {
			t.Fatalf("GOMAXPROCS=%d: the build after the fault cleared returned %v, or ranks other than the resident build's", procs, err)
		}
	}
}

// TestRefreshFaultKeepsLastGood: a failed adjacency read under a
// background rebuild counts as a build error and the snapshot being
// served stays; the next refresh, with storage healthy again, publishes.
func TestRefreshFaultKeepsLastGood(t *testing.T) {
	_, snap := pprServer(t, PPROptions{})
	faulty, pager := faultySnapshot(t, snap)
	store := NewStore()
	first := store.Publish(faulty)
	ref := NewRefresher(store, EngineBuilder(faulty.Graph, BuildConfig{Engine: EngineFrogWild, Machines: 2, Seed: 3}), 0)

	pager.Arm(100)
	if _, err := ref.Refresh(); !errors.Is(err, errStorageFault) {
		t.Fatalf("refresh over a failing read returned %v, want a storage fault", err)
	}
	if ref.Errors() != 1 || ref.Refreshes() != 0 || store.Current() != first {
		t.Fatalf("after a faulted refresh: %d errors, %d refreshes, epoch %d; want 1, 0 and the last-good snapshot",
			ref.Errors(), ref.Refreshes(), store.Current().Epoch)
	}
	pub, err := ref.Refresh()
	if err != nil || store.Current() != pub || pub.Epoch != first.Epoch+1 {
		t.Fatalf("refresh after the fault cleared: %v (epoch %d)", err, store.Current().Epoch)
	}

	// A runtime error under a rebuild is a bug, not a storage fault.
	pager.bug = true
	pager.Arm(100)
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Fatal("an out-of-range read under a rebuild did not propagate as a runtime error")
		}
	}()
	ref.Refresh()
}

// flakyFile is a graph file whose Nth read after Arm(N) fails with an
// I/O error; lastFailed is that read's offset and reads counts the reads
// that succeeded, by offset.
type flakyFile struct {
	src        io.ReaderAt
	countdown  atomic.Int64
	mu         sync.Mutex
	lastFailed int64
	reads      map[int64]int
}

func (f *flakyFile) Arm(n int64) { f.countdown.Store(n) }

func (f *flakyFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.countdown.Add(-1) == 0 {
		f.lastFailed = off
		return 0, errors.New("injected EIO")
	}
	f.reads[off]++
	return f.src.ReadAt(p, off)
}

// TestPagedReadFaultUnderRealCache is the fault path end to end, with
// nothing faked above the file: a gstore file behind the real page
// cache at its smallest budget, a read that fails in the middle of a
// request's sweeps. The request answers 503 unavailable, no frame or pin
// is left behind — the failed page is not cached as failed — and the
// same request, retried, re-reads the page and answers byte for byte
// what a resident server answers.
func TestPagedReadFaultUnderRealCache(t *testing.T) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 25000, MeanOutDeg: 8, DegExponent: 2.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := gstore.Write(&file, g); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyFile{src: bytes.NewReader(file.Bytes()), reads: make(map[int64]int)}
	pg, err := gstore.OpenPagedReaderAt(flaky, int64(file.Len()), nil, gstore.OpenOptions{Mem: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	base, err := Build(g, BuildConfig{Engine: EngineExact, Seed: 11, MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	servers := serveVariants(map[string]*graph.Graph{"resident": g, "paged": pg}, base, PPROptions{CacheSize: -1})
	resident, paged := servers["resident"], servers["paged"]

	const url = "/v1/ppr?sources=3,700,24999,12&k=10"
	want := body(t, resident, url)
	flaky.Arm(40) // a request at this budget loads hundreds of pages
	code, got := getPPR(t, paged, url)
	wantUnavailable(t, code, got)
	if n := paged.ppr.faults.Value(); n != 1 {
		t.Fatalf("%d walk faults counted, want 1", n)
	}
	pc, _ := pg.PageCacheStats()
	if pc.PinnedPages != 0 || pc.ResidentPages > pc.BudgetPages {
		t.Fatalf("after the fault %d pages pinned, %d resident of %d", pc.PinnedPages, pc.ResidentPages, pc.BudgetPages)
	}
	failed, before := flaky.lastFailed, flaky.reads[flaky.lastFailed]
	if got := body(t, paged, url); got != want {
		t.Fatalf("retried body differs from the resident one\n got: %s\nwant: %s", got, want)
	}
	if flaky.reads[failed] == before {
		t.Fatalf("the retry did not re-read the page at offset %d", failed)
	}
}
