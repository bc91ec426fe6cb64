// Command prserve serves the top-k PageRank query over HTTP: it
// computes an estimate of a graph's PageRank with the chosen engine,
// publishes it as an immutable snapshot, and answers queries from it
// while a background refresher recomputes the estimate on a cadence and
// swaps it in atomically. Every response carries the snapshot epoch, so
// clients can see exactly how stale an answer is.
//
// Usage:
//
//	prserve -gen twitterlike -n 50000 -addr :8080 -refresh 30s
//	prserve -graph tw.csr.gz -engine frogwild -walkers 100000 -ps 0.7
//	prserve -gen twitterlike -n 50000 -graph-cache tw.csr -snapshot-dir /var/lib/prserve
//
// API:
//
//	GET /v1/topk?k=20                  top-k vertices with scores
//	GET /v1/rank?vertex=17             one vertex's estimated rank
//	GET /v1/ppr?source=7&k=20          top-k personalized PageRank of a
//	                                   source set (sources=a,b,c),
//	                                   request-time walks, bounded budget
//	GET /v1/compare?k=20               served accuracy vs exact PageRank
//	GET /v1/stats                      snapshot provenance, graph stats
//	GET /metrics                       every counter (Prometheus text)
//	GET /healthz                       200 once a snapshot is published
//
// Observability: /metrics serves the Prometheus exposition in both
// modes (single-node and router), -log-requests writes one JSON line
// per request to stderr (requests carry an X-Request-Id — echoed when
// the client sends one, generated by the router otherwise and
// forwarded to the shards so one id traces the whole fan-out), and
// -pprof-addr serves net/http/pprof on a side listener.
//
// Restart cost is optional: -graph-cache FILE keeps the graph in the
// mmap-able gstore CSR format (built from -graph/-gen on the first
// run, mapped zero-copy afterwards), and -snapshot-dir DIR persists
// every published snapshot so a restarted server warm-starts — it
// answers queries from the last persisted estimate in milliseconds,
// with that epoch's provenance, while the first fresh estimate
// computes in the background.
//
// -refresh 0 disables the recompute cadence: the initial snapshot
// serves forever (after a warm start, one background refresh still
// replaces the restored estimate). SIGINT/SIGTERM shut the server
// down gracefully.
//
// A sharded cluster has one builder: a single-node prserve with
// -snapshot-dir DIR, whose persisted snapshots every prshard started
// with the same -snapshot-dir serves (and re-reads when the builder
// publishes a newer epoch). Only the builder takes the graph and
// engine flags.
//
// Router mode: -shards fronts that cluster of prshard workers instead
// of serving a local snapshot. The router holds no graph; it sends a
// rank query to the vertex's owner (shard v mod the shard count), fans
// a top-k out to the shard RPC addresses and merges the partial lists
// exactly, and degrades gracefully when a shard dies or lags a
// refresh. The list is positional: the address at position i must be
// the prshard started with -shard i.
//
//	prserve -addr :8081 -gen twitterlike -n 50000 -snapshot-dir /var/lib/fw
//	prserve -addr :8080 -shards 127.0.0.1:9001,127.0.0.1:9002
//
// In router mode the graph and engine flags are unused; /v1/compare
// and /v1/ppr are not served (the router has no graph to compare
// against or walk over — /v1/ppr answers an explicit 501 with code
// "unsupported"), /v1/stats lists per-shard health and /metrics the
// measured wire bytes.
//
// Personalized PageRank is tuned by the -ppr-* flags: -ppr-walks is
// the per-source walk count, -ppr-budget the hard per-request walk
// cap (a request over budget runs fewer walks per source and is
// flagged "truncated": true), -ppr-cache sizes the LRU (an entry is one
// source's whole tally or a repeated set's top-maxk cut; either answers
// every k), and
// -ppr-maxk / -ppr-max-sources bound a query's shape. Identical
// requests within one epoch return bit-identical bodies.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gio"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil))
}

// options are prserve's flags. The graph and engine flags are declared
// by src and build.
type options struct {
	src   gio.Source
	build serve.BuildConfig
	ppr   serve.PPROptions

	addr, snapDir, shards, pprof string
	refresh, shardTimeout        time.Duration
	logRequests                  bool
}

// newFlags declares prserve's flag set, writing usage to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{src: gio.Source{N: 50000, Seed: 1}}
	fs := flag.NewFlagSet("prserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.src.RegisterFlags(fs)
	o.build.RegisterFlags(fs)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.snapDir, "snapshot-dir", "", "persist every published snapshot here and warm-start from the last one")
	fs.DurationVar(&o.refresh, "refresh", 0, "background recompute cadence (0 = serve the initial snapshot forever)")
	fs.StringVar(&o.shards, "shards", "", "router mode: comma-separated prshard RPC addresses, the one started with -shard i at position i")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 2*time.Second, "router mode: per-shard RPC timeout (each query retries once on a fresh connection)")
	fs.BoolVar(&o.logRequests, "log-requests", false, "write one JSON line per request to stderr (rid, method, path, status, duration)")
	fs.StringVar(&o.pprof, "pprof-addr", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060)")

	fs.IntVar(&o.ppr.WalksPerSource, "ppr-walks", 0, "/v1/ppr walks per source when the budget allows (0 = 400)")
	fs.IntVar(&o.ppr.WalkBudget, "ppr-budget", 0, "/v1/ppr hard per-request walk budget; over-budget requests run fewer walks per source and set truncated (0 = 16384)")
	fs.IntVar(&o.ppr.MaxK, "ppr-maxk", 0, "/v1/ppr k parameter upper bound, and the depth every computed request cuts to (0 = 100)")
	fs.IntVar(&o.ppr.MaxSources, "ppr-max-sources", 0, "/v1/ppr source set size limit (0 = 16)")
	fs.IntVar(&o.ppr.CacheSize, "ppr-cache", 0, "/v1/ppr LRU capacity in entries, each one source's whole tally or a repeated source set's top-maxk cut (0 = 1024, negative disables)")
	return fs, o
}

// run is the testable CLI body: 0 after a graceful shutdown, 1 when
// serving fails, 2 on usage errors. onReady, when non-nil, receives the
// bound listen address once the server accepts queries.
func run(ctx context.Context, args []string, stderr io.Writer, onReady func(addr string)) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "prserve: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "prserve: %v\n", err)
		return 1
	}
	var reqLog *obs.Logger
	if o.logRequests {
		reqLog = obs.NewLogger(stderr)
	}

	var handler http.Handler
	var served func() string // the shutdown summary
	if o.shards != "" {
		rt := newRouter(o, reqLog)
		if rt == nil {
			return usage("-shards needs at least one address")
		}
		handler = rt
		served = func() string {
			return fmt.Sprintf("%d queries (%d degraded, %d epoch fallbacks, %.0f wire bytes/query)",
				rt.Queries(), rt.Degraded(), rt.EpochFallbacks(), rt.NetworkStats().BytesPerQuery)
		}
	} else {
		loadStart := time.Now()
		g, err := o.src.Open()
		if err != nil {
			return fail(err)
		}
		defer g.Close()
		cacheNote := ""
		if o.src.Cache != "" {
			cacheNote = fmt.Sprintf(" (cache %s)", o.src.Cache)
		}
		log.Printf("prserve: graph %d vertices / %d edges ready in %.3fs%s",
			g.NumVertices(), g.NumEdges(), time.Since(loadStart).Seconds(), cacheNote)
		srv, refresher, stop, err := newService(ctx, g, o, reqLog)
		if err != nil {
			return fail(err)
		}
		defer stop()
		handler = srv
		served = func() string {
			return fmt.Sprintf("%d queries (%d cache hits, %d refreshes, %d persist errors)",
				srv.Queries(), srv.CacheHits(), refresher.Refreshes(), refresher.PersistErrors())
		}
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fail(err)
	}
	if o.pprof != "" {
		log.Printf("prserve: serving pprof on %s", o.pprof)
		go func() {
			// The pprof import registered itself on http.DefaultServeMux.
			if err := obs.ListenAndServe(ctx, o.pprof, http.DefaultServeMux); err != nil {
				log.Printf("prserve: pprof listener: %v", err)
			}
		}()
	}
	log.Printf("prserve: serving on %s", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	if err := obs.ServeListener(ctx, ln, handler); err != nil {
		return fail(err)
	}
	log.Printf("prserve: graceful shutdown after %s", served())
	return 0
}

// newRouter builds router mode's handler: a stateless merge front over
// the -shards RPC addresses, nil when the list names none.
func newRouter(o *options, reqLog *obs.Logger) *router.Router {
	var clients []*router.ShardClient
	for _, a := range strings.Split(o.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			clients = append(clients, router.NewShardClient(len(clients), a, router.DialTCP(a), o.shardTimeout))
		}
	}
	if len(clients) == 0 {
		return nil
	}
	log.Printf("prserve: routing over %d shards", len(clients))
	return router.New(clients, router.Options{Timeout: o.shardTimeout, RequestLog: reqLog})
}

// newService builds single-node mode's handler over g: the initial (or
// warm-started) snapshot and the background refresher, which runs until
// ctx is cancelled or stop is called; stop returns once it has returned.
func newService(ctx context.Context, g *graph.Graph, o *options, reqLog *obs.Logger) (srv *serve.Server, refresher *serve.Refresher, stop func(), err error) {
	o.build.Seed = o.src.Seed
	cfg := serve.ServiceConfig{
		Build:           o.build,
		RefreshInterval: o.refresh,
		OnRefreshError:  func(err error) { log.Printf("prserve: refresh: %v", err) },
		SnapshotDir:     o.snapDir,
		RequestLog:      reqLog,
		PPR:             o.ppr,
	}
	start := time.Now()
	srv, refresher, err = serve.NewService(g, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("initial snapshot: %w", err)
	}
	snap := srv.Snapshot()
	if snap.WarmStart {
		log.Printf("prserve: warm start from %s: serving persisted epoch %d (%s, seed %d) after %.3fs; first refresh runs in the background",
			serve.SnapshotPath(o.snapDir), snap.Epoch, snap.Engine, snap.Seed, time.Since(start).Seconds())
	} else {
		log.Printf("prserve: snapshot epoch %d ready in %.2fs (top index k<=%d)",
			snap.Epoch, time.Since(start).Seconds(), cfg.Build.MaxK)
	}
	if o.refresh > 0 {
		log.Printf("prserve: background refresh every %s", o.refresh)
	}
	return srv, refresher, refresher.Start(ctx, cfg.OnRefreshError), nil
}
