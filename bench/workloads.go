package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gstore"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

// workloadDef names a workload and the request family it sends. The
// names are final: every later performance claim cites one. Why each
// exists is recorded in BENCHMARK.json and README.md. An ungated
// workload runs and checks like the others but is not listed in
// BENCHMARK.json, so the driver neither runs it nor holds a change to it.
type workloadDef struct {
	Name    string
	Family  string // "snapshot", "ppr", or "" for the refresh loop
	Ungated bool
}

var workloads = []workloadDef{
	{Name: "snapshot_http", Family: "snapshot"},
	{Name: "ppr_resident", Family: "ppr"},
	{Name: "ppr_paged", Family: "ppr"},
	{Name: "sharded_tcp", Family: "snapshot"},
	// A refresh is half a second of random reads over the whole graph, the
	// kind of work the shared host's neighbours slow most: its fastest
	// refreshes of a run spread by a fifth between identical runs, which no
	// bound the contract allows can hold. The same build is gated through
	// setup_s of the three cold-build workloads.
	{Name: "refresh", Ungated: true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const (
	numShards     = 4
	routerTimeout = 5 * time.Second
)

// target is one running instance of the system under test: a
// single-node serve.Server or a router over four TCP shards, listening
// on loopback in this process.
type target struct {
	base  string // http://127.0.0.1:port
	g     *graph.Graph
	srv   *serve.Server  // single node
	rt    *router.Router // sharded, over store and shard
	store *serve.Store
	shard []*router.ShardClient

	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error // first error a Serve loop returned
}

// background runs a Serve loop until the target is stopped.
func (t *target) background(serve func() error) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := serve(); err != nil {
			t.mu.Lock()
			t.err = errors.Join(t.err, err)
			t.mu.Unlock()
		}
	}()
}

// stop shuts every listener down, waits for the Serve loops to return
// and releases the graph.
func (t *target) stop() error {
	t.cancel()
	t.wg.Wait()
	for _, c := range t.shard {
		c.Close()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return errors.Join(t.err, t.g.Close())
}

// registry returns the obs registry the target's /metrics renders.
func (t *target) registry() *obs.Registry {
	if t.rt != nil {
		return t.rt.Metrics()
	}
	return t.srv.Metrics()
}

// snapshot returns the estimate the target is serving.
func (t *target) snapshot() *serve.Snapshot {
	if t.srv != nil {
		return t.srv.Snapshot()
	}
	return t.store.Current()
}

// startTarget cold-starts the workload's system and returns once its
// listener has answered a first 200: open the fixture, build (or for
// ppr_paged warm-start) the estimate, bring the listeners up. With a
// tracer the span recorders are spliced in at the public seams.
func startTarget(w workloadDef, fx *fixture, tr *tracer) (*target, error) {
	open := gstore.OpenOptions{}
	if w.Name == "ppr_paged" {
		open.Mem = pagedMem
	}
	g, err := gstore.Open(fx.GraphPath, open)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &target{g: g, cancel: cancel}
	if w.Name == "sharded_tcp" {
		err = t.startSharded(ctx, tr)
	} else {
		err = t.startSingle(ctx, w, fx, tr)
	}
	if err == nil {
		err = firstOK(t.base)
	}
	if err != nil {
		return nil, errors.Join(err, t.stop())
	}
	return t, nil
}

func (t *target) startSingle(ctx context.Context, w workloadDef, fx *fixture, tr *tracer) error {
	cfg := serve.ServiceConfig{Build: buildConfig(), PPR: pprOptions}
	if w.Name == "ppr_paged" {
		cfg.SnapshotDir = fx.SnapDir
	}
	var warmErr error
	cfg.OnRefreshError = func(err error) { warmErr = errors.Join(warmErr, err) }
	srv, _, err := serve.NewService(t.g, cfg)
	if err != nil {
		return err
	}
	if warmErr != nil {
		return fmt.Errorf("warm start: %w", warmErr)
	}
	t.srv = srv
	if tr == nil {
		t.background(func() error { return srv.Serve(ctx, "127.0.0.1:0") })
		t.base, err = waitAddr(srv.Addr)
	} else {
		t.base, err = t.serveTraced(ctx, tr.middleware(spanServeHandler, srv))
	}
	return err
}

func (t *target) startSharded(ctx context.Context, tr *tracer) error {
	snap, err := serve.Build(t.g, buildConfig())
	if err != nil {
		return err
	}
	t.store = serve.NewStore()
	t.store.Publish(snap)
	for i := range numShards {
		owned, err := router.OwnedVertices(t.g, numShards, i, buildSeed)
		if err != nil {
			return err
		}
		shard := router.NewShardServer(i, numShards, owned, t.store)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr := ln.Addr().String()
		dial := router.DialTCP(addr)
		if tr != nil {
			ln, dial = tr.listen(i, ln), tr.dial(i, dial)
		}
		t.background(func() error { return shard.Serve(ctx, ln) })
		t.shard = append(t.shard, router.NewShardClient(i, addr, dial, routerTimeout))
	}
	t.rt = router.New(t.shard, router.Options{Timeout: routerTimeout})
	if tr == nil {
		t.background(func() error { return t.rt.Serve(ctx, "127.0.0.1:0") })
		t.base, err = waitAddr(t.rt.Addr)
		return err
	}
	t.base, err = t.serveTraced(ctx, tr.middleware(spanRouterHandler, t.rt))
	return err
}

// serveTraced is the traced pass's listener: the same obs.ServeListener
// loop the side listeners use, over a handler wrapped in a span.
func (t *target) serveTraced(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	t.background(func() error { return obs.ServeListener(ctx, ln, h) })
	return "http://" + ln.Addr().String(), nil
}

// waitAddr polls a server's Addr until its listener is bound.
func waitAddr(addr func() string) (string, error) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a := addr(); a != "" {
			return "http://" + a, nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return "", errors.New("listener did not come up within 5s")
}

// firstOK requires a 200 from /healthz, which on the router also dials
// every shard.
func firstOK(base string) error {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	return nil
}

// counters reads the target's public counters: its obs registry as
// /metrics would render it, the router's wire meters and the graph's
// page-cache statistics. Deltas across a timed phase are the ledger's
// live counts.
func (t *target) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := t.registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	c, err := obs.ParseText(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if t.rt != nil {
		net := t.rt.NetworkStats()
		c["wire_queries"] = float64(net.Queries)
		c["wire_sent"] = float64(net.BytesSent)
		c["wire_recv"] = float64(net.BytesRecv)
		c["router_retries"] = float64(t.rt.Retries())
		c["router_degraded"] = float64(t.rt.Degraded())
		c["router_epoch_fallbacks"] = float64(t.rt.EpochFallbacks())
	}
	if st, ok := t.g.PageCacheStats(); ok {
		c["page_hits"] = float64(st.Hits)
		c["page_misses"] = float64(st.Misses)
		c["page_evictions"] = float64(st.Evictions)
	}
	return c, nil
}

// liveCounts turns the counter deltas of a timed phase into the
// ledger's live metrics. Layers that did no work read zero.
func liveCounts(m metricSet, before, after map[string]float64, p phase) {
	d := func(name string) float64 { return obs.FamilySum(after, name) - obs.FamilySum(before, name) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	queries := float64(p.OK + p.Failed)

	pageHits, pageMisses := d("page_hits"), d("page_misses")
	m.set("pcache.hit_ratio", ratio(pageHits, pageHits+pageMisses))
	m.set("pcache.misses_per_query", ratio(pageMisses, queries))
	m.set("pcache.evictions_per_query", ratio(d("page_evictions"), queries))
	m.set("pcache.read_kb_per_query", ratio(pageMisses*64, queries)) // computed: one 64 KiB page per miss

	m.set("serve.walks_per_s", d("ppr_walks_total")/p.Seconds)
	m.set("serve.walk_page_locality", ratio(d("ppr_walk_page_local_steps_total"), d("ppr_walk_steps_total")))

	topkReqs := after[`serve_request_seconds_count{endpoint="topk"}`] - before[`serve_request_seconds_count{endpoint="topk"}`]
	m.set("serve.topk_cache_hit_ratio", ratio(d("serve_topk_cache_hits_total"), topkReqs))
	m.set("serve.ppr_cache_hit_ratio", ratio(d("ppr_cache_hits_total"), d("ppr_requests_total")))
	m.set("serve.ppr_truncated_ratio", ratio(d("ppr_truncated_total"), d("ppr_requests_total")))
	m.set("serve.coalesced_per_kq", ratio(1000*d("serve_coalesced_total"), queries))

	wireQueries := d("wire_queries")
	m.set("router.wire_bytes_per_query", ratio(d("wire_sent")+d("wire_recv"), wireQueries))
	m.set("router.req_bytes_per_query", ratio(d("wire_sent"), wireQueries))
	m.set("router.retries", d("router_retries"))
	m.set("router.degraded", d("router_degraded"))
	m.set("router.epoch_fallbacks", d("router_epoch_fallbacks"))
}
