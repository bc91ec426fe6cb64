package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/glpr"
	"repro/internal/graph"
	"repro/internal/graph/gstore"
	"repro/internal/graph/pcache"
	"repro/internal/obs"
	"repro/internal/pagerank"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/topk"
)

// The isolated timings of the ledger: each layer timed from outside,
// through its module's public functions, on the fixture. They do not
// depend on the workload, so every traced run reports the same set.

// sink keeps the compiler from removing a timed call.
var sink int

// layerTimer runs testing.Benchmark bodies under a short, fixed
// benchtime and files ns/op and allocs/op under the ledger's names.
type layerTimer struct {
	m   metricSet
	err error
}

// timeOp benchmarks fn and records ns/op divided by scale under name;
// allocs/op goes under allocName when that is not empty.
func (l *layerTimer) timeOp(name string, scale float64, allocName string, fn func(b *testing.B)) {
	if l.err != nil {
		return
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		l.err = fmt.Errorf("layer timing %s failed", name)
		return
	}
	l.m.set(name, float64(r.T.Nanoseconds())/float64(r.N)/scale)
	if allocName != "" {
		l.m.set(allocName, float64(r.MemAllocs)/float64(r.N))
	}
}

// once times a single call of fn in seconds.
func (l *layerTimer) once(fn func() error) float64 {
	if l.err != nil {
		return 0
	}
	start := time.Now()
	l.err = fn()
	return time.Since(start).Seconds()
}

const (
	ns = 1.0
	us = 1e3
	ms = 1e6
)

// layerTimings fills m with every isolated per-layer metric.
func layerTimings(m metricSet, fx *fixture, benchtime time.Duration, tmp string) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}
	l := &layerTimer{m: m}

	g, err := gstore.Open(fx.GraphPath, gstore.OpenOptions{})
	if err != nil {
		return err
	}
	defer g.Close()
	paged, err := gstore.Open(fx.GraphPath, gstore.OpenOptions{Mem: pagedMem})
	if err != nil {
		return err
	}
	defer paged.Close()
	n := g.NumVertices()

	l.timeOp("gstore.open_resident_ms", ms, "", func(b *testing.B) {
		for range b.N {
			og, err := gstore.Open(fx.GraphPath, gstore.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			og.Close()
		}
	})
	l.timeOp("gstore.open_paged_ms", ms, "", func(b *testing.B) {
		for range b.N {
			og, err := gstore.Open(fx.GraphPath, gstore.OpenOptions{Mem: pagedMem})
			if err != nil {
				b.Fatal(err)
			}
			og.Close()
		}
	})

	if err := timePageCache(l, fx.GraphPath); err != nil {
		return err
	}

	// A seed-fixed (vertex, neighbour index) sequence over vertices
	// that have successors.
	r := rand.New(rand.NewPCG(graphSeed, streamKey("adjacency", 0)))
	type step struct {
		v graph.VertexID
		i int
	}
	steps := make([]step, 4096)
	for i := range steps {
		v := graph.VertexID(r.IntN(n))
		for g.OutDegree(v) == 0 {
			v = graph.VertexID(r.IntN(n))
		}
		steps[i] = step{v, r.IntN(g.OutDegree(v))}
	}
	outAt := func(gr *graph.Graph) func(b *testing.B) {
		return func(b *testing.B) {
			rd := gr.NewAdjReader()
			defer rd.Release()
			for i := range b.N {
				s := steps[i%len(steps)]
				sink += int(rd.OutAt(s.v, s.i))
			}
		}
	}
	l.timeOp("graph.outat_resident_ns", ns, "", outAt(g))
	l.timeOp("graph.outat_paged_ns", ns, "graph.outat_paged_allocs", outAt(paged))
	l.timeOp("graph.outdegree_ns", ns, "", func(b *testing.B) {
		rd := g.NewAdjReader()
		for i := range b.N {
			sink += rd.OutDegree(steps[i%len(steps)].v)
		}
	})

	l.timeOp("rng.derive_ns", ns, "rng.derive_allocs", func(b *testing.B) {
		for i := range b.N {
			sink += int(rng.Derive(buildSeed, 1, 2, uint64(i)).Uint64() & 1)
		}
	})
	l.timeOp("rng.geometric_ns", ns, "", func(b *testing.B) {
		s := rng.New(buildSeed)
		for range b.N {
			sink += s.Geometric(pagerank.DefaultTeleport)
		}
	})

	// The estimate, built once: its stage times are the build metrics.
	var snap *serve.Snapshot
	l.once(func() (err error) {
		snap, err = serve.Build(g, buildConfig())
		return err
	})
	if l.err != nil {
		return l.err
	}
	m.set("serve.build_estimate_s", snap.EstimateSeconds)
	m.set("serve.build_index_s", snap.IndexSeconds)
	store := serve.NewStore()
	store.Publish(snap)
	snapPath := filepath.Join(tmp, "layer-snapshot.fws")
	l.timeOp("serve.snapshot_save_ms", ms, "", func(b *testing.B) {
		for range b.N {
			if err := serve.SaveSnapshot(snapPath, snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	l.timeOp("serve.snapshot_load_ms", ms, "", func(b *testing.B) {
		for range b.N {
			if _, err := serve.LoadSnapshot(snapPath, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	pagedSnap, err := serve.LoadSnapshot(snapPath, paged)
	if err != nil {
		return err
	}

	// The walk kernel with no HTTP, LRU or batcher: one PPRTopK per op
	// over 64 fixed sources drawn from the traffic's Zipf law.
	z := rand.NewZipf(r, zipfS, 1, uint64(n-1))
	sources := make([]graph.VertexID, 64)
	for i := range sources {
		sources[i] = graph.VertexID(z.Uint64())
	}
	pprTopK := func(s *serve.Snapshot) func(b *testing.B) {
		return func(b *testing.B) {
			for i := range b.N {
				ents, _, err := serve.PPRTopK(s, sources[i%len(sources):][:1], 100, pprOptions)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(ents)
			}
		}
	}
	l.timeOp("serve.ppr_topk_us", us, "serve.ppr_topk_allocs", pprTopK(snap))
	l.timeOp("serve.ppr_topk_paged_us", us, "", pprTopK(pagedSnap))

	// Handlers into a discarding writer: everything but the socket.
	srv := serve.NewServer(store, serve.ServerOptions{PPR: pprOptions})
	handler := func(h http.Handler, path string) func(b *testing.B) {
		return func(b *testing.B) {
			req, err := http.NewRequest(http.MethodGet, path, nil)
			if err != nil {
				b.Fatal(err)
			}
			w := newMemWriter(false)
			h.ServeHTTP(w, req) // fills the caches the timed calls hit
			b.ResetTimer()
			for range b.N {
				h.ServeHTTP(w, req)
			}
			if w.status != 0 && w.status != http.StatusOK {
				b.Fatalf("GET %s: status %d", path, w.status)
			}
		}
	}
	l.timeOp("serve.handler_topk_ns", ns, "serve.handler_topk_allocs", handler(srv, "/v1/topk?k=10"))
	l.timeOp("serve.handler_rank_ns", ns, "serve.handler_rank_allocs", handler(srv, "/v1/rank?vertex=7"))
	l.timeOp("serve.handler_stats_ns", ns, "", handler(srv, "/v1/stats"))
	l.timeOp("serve.handler_ppr_hit_ns", ns, "", handler(srv, "/v1/ppr?source=7&k=10"))
	l.timeOp("serve.snapshot_topk_ns", ns, "", func(b *testing.B) {
		for range b.N {
			sink += len(snap.TopK(100))
		}
	})

	l.timeOp("topk.top100_ms", ms, "", func(b *testing.B) {
		for range b.N {
			sink += len(topk.Top(snap.Ranks, 100))
		}
	})
	owned := make([][]uint32, numShards)
	ownedSeconds := l.once(func() error {
		for i := range owned {
			var err error
			if owned[i], err = router.OwnedVertices(g, numShards, i, buildSeed); err != nil {
				return err
			}
		}
		return nil
	})
	if l.err != nil {
		return l.err
	}
	m.set("router.owned_vertices_s", ownedSeconds/numShards)
	subset := func(k int) func(b *testing.B) {
		return func(b *testing.B) {
			for range b.N {
				sink += len(topk.Subset(snap.Ranks, owned[0], k))
			}
		}
	}
	l.timeOp("topk.subset100_us", us, "", subset(100))
	l.timeOp("topk.subset10_us", us, "", subset(10))
	lists := make([][]topk.Entry, numShards)
	for i := range lists {
		lists[i] = topk.Subset(snap.Ranks, owned[i], 100)
	}
	l.timeOp("topk.merge4x100_us", us, "", func(b *testing.B) {
		for range b.N {
			sink += len(topk.Merge(lists, 100))
		}
	})

	if err := timeRouter(l, store, owned, handler); err != nil {
		return err
	}
	if l.err != nil {
		return l.err
	}
	if err := timeEngines(l, g); err != nil {
		return err
	}

	l.timeOp("obs.latency_observe_ns", ns, "", func(b *testing.B) {
		var lat obs.Latency
		for i := range b.N {
			lat.Observe(time.Duration(i&1023) * time.Microsecond)
		}
	})
	l.timeOp("obs.scrape_ms", ms, "", func(b *testing.B) {
		for range b.N {
			if err := srv.Metrics().WritePrometheus(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	return l.err
}

// timePageCache times Cursor.View over the fixture file: alternating
// between two resident pages (a pool hit each time) against cycling
// through more pages than the budget holds (a miss and a 64 KiB read
// each time).
func timePageCache(l *layerTimer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	pool := pcache.New(f, info.Size(), 16*pcache.PageSize)
	pages := pool.NumPages()
	view := func(stride func(i int) int64) func(b *testing.B) {
		return func(b *testing.B) {
			cur := pool.NewCursor()
			defer cur.Release()
			for i := range b.N {
				p, err := cur.View(stride(i))
				if err != nil {
					b.Fatal(err)
				}
				sink += len(p)
			}
		}
	}
	l.timeOp("pcache.view_hit_ns", ns, "pcache.view_hit_allocs", view(func(i int) int64 { return (int64(i) & 1) % pages }))
	l.timeOp("pcache.view_miss_ns", ns, "", view(func(i int) int64 { return int64(i) % pages }))
	return l.err
}

// timeRouter times Router.ServeHTTP into a discarding writer over
// in-memory pipes and over TCP loopback shards: the difference is the
// socket cost of the fan-out.
func timeRouter(l *layerTimer, store *serve.Store, owned [][]uint32, handler func(http.Handler, string) func(*testing.B)) error {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var pipe, tcp []*router.ShardClient
	serveErrs := make([]error, len(owned))
	defer func() {
		cancel()
		wg.Wait()
		for _, c := range append(pipe, tcp...) {
			c.Close()
		}
		l.err = errors.Join(append(serveErrs, l.err)...)
	}()
	for i := range owned {
		shard := router.NewShardServer(i, len(owned), owned[i], store)
		pipe = append(pipe, router.NewShardClient(i, "pipe", router.PipeDialer(shard), routerTimeout))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveErrs[i] = shard.Serve(ctx, ln)
		}()
		addr := ln.Addr().String()
		tcp = append(tcp, router.NewShardClient(i, addr, router.DialTCP(addr), routerTimeout))
	}
	overPipe := router.New(pipe, router.Options{Timeout: routerTimeout})
	overTCP := router.New(tcp, router.Options{Timeout: routerTimeout})
	l.timeOp("router.handler_topk_pipe_us", us, "", handler(overPipe, "/v1/topk?k=10"))
	l.timeOp("router.handler_topk_tcp_us", us, "router.handler_topk_tcp_allocs", handler(overTCP, "/v1/topk?k=10"))
	l.timeOp("router.handler_rank_tcp_us", us, "", handler(overTCP, "/v1/rank?vertex=7"))
	return nil
}

// timeEngines runs the paper's algorithm, its baseline and the exact
// solver once each and reads their own cost reports.
func timeEngines(l *layerTimer, g *graph.Graph) error {
	m := l.m
	cfg := frogConfig(g.NumVertices(), buildSeed)
	var frog *frogwild.Result
	frogSeconds := l.once(func() (err error) {
		frog, err = frogwild.Run(g, cfg)
		return err
	})
	var baseline *glpr.Result
	glprSeconds := l.once(func() (err error) {
		baseline, err = glpr.Run(g, glpr.Config{Machines: cfg.Machines, Iterations: 2, Seed: buildSeed})
		return err
	})
	var layout *cluster.Layout
	layoutSeconds := l.once(func() (err error) {
		layout, err = cluster.NewLayout(g, cfg.Machines, cfg.Partitioner, buildSeed)
		return err
	})
	walkSeconds := l.once(func() error {
		_, err := frogwild.SerialWalk(g, cfg.Walkers, cfg.Iterations, pagerank.DefaultTeleport, buildSeed)
		return err
	})
	exactSeconds := l.once(func() error {
		_, err := pagerank.Exact(g, pagerank.Options{})
		return err
	})
	if l.err != nil {
		return l.err
	}
	net := frog.Stats.Net
	m.set("frogwild.run_s", frogSeconds)
	m.set("frogwild.net_bytes", float64(net.TotalBytes))
	m.set("frogwild.gather_bytes", float64(net.ClassBytes(cluster.TrafficGather)))
	m.set("frogwild.sync_bytes", float64(net.ClassBytes(cluster.TrafficSync)))
	m.set("frogwild.signal_bytes", float64(net.ClassBytes(cluster.TrafficSignal)))
	m.set("frogwild.sim_s", frog.Stats.SimSeconds)
	m.set("frogwild.serialwalk_s", walkSeconds)
	m.set("gas.vertex_ops_per_s", float64(net.VertexOps)/frogSeconds)
	m.set("gas.edge_ops", float64(net.EdgeOps))
	m.set("cluster.layout_s", layoutSeconds)
	m.set("cluster.replication_factor", layout.ReplicationFactor())
	m.set("glpr.run2_s", glprSeconds)
	m.set("glpr.net2_bytes", float64(baseline.Stats.Net.TotalBytes))
	m.set("frogwild.speedup_vs_glpr2", glprSeconds/frogSeconds)
	m.set("frogwild.net_ratio_vs_glpr2", float64(net.TotalBytes)/float64(baseline.Stats.Net.TotalBytes))
	m.set("pagerank.exact_s", exactSeconds)
	return nil
}
