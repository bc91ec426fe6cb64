// Command prshard is one worker of a sharded top-k PageRank cluster:
// it owns the vertices v with v % shards == shard and answers partial
// top-k/rank queries over a small length-prefixed RPC protocol, to be
// fronted by a prserve router (-shards).
//
// Every shard of a cluster runs with the same -graph/-gen, -shards,
// -engine and -seed flags and a distinct -shard id. Each shard builds
// the same graph and the same deterministic estimate and serves only
// the vertices its id owns by that arithmetic — so the ownership sets
// partition the vertex space with no coordination and no pass over the
// edges, and the router's merged top-k is exactly the single-node
// answer. The router finds a vertex's owner by the same arithmetic, so
// the address at position i of its -shards list must be the process
// started with -shard i; /healthz reports a shard at the wrong position.
//
// Usage:
//
//	prshard -addr 127.0.0.1:9001 -shard 0 -shards 4 -gen twitterlike -n 50000
//	prshard -addr 127.0.0.1:9002 -shard 1 -shards 4 -gen twitterlike -n 50000
//	prserve -addr :8080 -shards 127.0.0.1:9001,127.0.0.1:9002,...
//
// The shard keeps its previous snapshot alongside the current one, so
// a router can re-ask at the older epoch while a refresh rolls across
// the cluster. SIGINT/SIGTERM shut the shard down.
//
// Observability: -metrics-addr serves the Prometheus exposition
// (shard ops, frame bytes, snapshot epoch/age, refresher stages) on an
// HTTP side listener, -log-requests writes one JSON line per RPC to
// stderr carrying the router-propagated request id, and -pprof-addr
// serves net/http/pprof.
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
	"syscall"
	"time"

	"repro/internal/graph/gio"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil, nil))
}

// options are prshard's flags. The graph and engine flags it shares
// with prserve are declared by src and build.
type options struct {
	src   gio.Source
	build serve.BuildConfig

	addr, metrics, pprof string
	shard, shards        int
	refresh              time.Duration
	logRequests          bool
}

// newFlags declares prshard's flag set, writing usage to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{src: gio.Source{N: 50000, Seed: 1}}
	fs := flag.NewFlagSet("prshard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.src.RegisterFlags(fs)
	o.build.RegisterFlags(fs)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9001", "RPC listen address")
	fs.IntVar(&o.shard, "shard", 0, "this shard's id, 0-based")
	fs.IntVar(&o.shards, "shards", 1, "total shard count in the cluster")
	fs.DurationVar(&o.refresh, "refresh", 0, "background recompute cadence (0 = serve the initial snapshot forever)")
	fs.StringVar(&o.metrics, "metrics-addr", "", "serve the Prometheus exposition on this HTTP side address (e.g. 127.0.0.1:9101)")
	fs.BoolVar(&o.logRequests, "log-requests", false, "write one JSON line per shard RPC to stderr (rid, op, status, duration)")
	fs.StringVar(&o.pprof, "pprof-addr", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6061)")
	return fs, o
}

// run is the testable CLI body. onReady, when non-nil, receives the
// bound RPC listen address once the shard is serving; onMetrics
// likewise receives the bound -metrics-addr address.
func run(ctx context.Context, args []string, stderr io.Writer, onReady, onMetrics func(addr string)) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.shards < 1 || o.shard < 0 || o.shard >= o.shards {
		fmt.Fprintf(stderr, "prshard: -shard %d out of range for -shards %d\n", o.shard, o.shards)
		fs.Usage()
		return 2
	}

	loadStart := time.Now()
	g, err := o.src.Open()
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	defer g.Close()
	loadSeconds := time.Since(loadStart).Seconds()

	partStart := time.Now()
	owned, err := router.OwnedVertices(g, o.shards, o.shard, 0) // the seed is ignored
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	log.Printf("prshard: shard %d/%d owns %d of %d vertices (graph ready in %.3fs, partition in %.3fs)",
		o.shard, o.shards, len(owned), g.NumVertices(), loadSeconds, time.Since(partStart).Seconds())

	reg := obs.NewRegistry()
	store := serve.NewStore()
	o.build.Seed = o.src.Seed
	refresher := serve.NewRefresher(store, serve.EngineBuilder(g, o.build), o.refresh)
	refresher.Instrument(reg)
	buildStart := time.Now()
	if _, err := refresher.Refresh(); err != nil {
		fmt.Fprintf(stderr, "prshard: initial snapshot: %v\n", err)
		return 1
	}
	snap := store.Current()
	log.Printf("prshard: snapshot epoch %d (%s, seed %d) ready in %.2fs",
		snap.Epoch, snap.Engine, snap.Seed, time.Since(buildStart).Seconds())
	if o.refresh > 0 {
		defer refresher.Start(ctx, func(err error) { log.Printf("prshard: refresh: %v", err) })()
		log.Printf("prshard: background refresh every %s", o.refresh)
	}

	srv := router.NewShardServer(o.shard, o.shards, owned, store)
	srv.Instrument(reg)
	if o.logRequests {
		srv.SetRequestLog(obs.NewLogger(stderr))
	}
	if o.metrics != "" {
		mln, err := net.Listen("tcp", o.metrics)
		if err != nil {
			fmt.Fprintf(stderr, "prshard: metrics listener: %v\n", err)
			return 1
		}
		mmux := http.NewServeMux()
		mmux.Handle("/metrics", reg.Handler())
		log.Printf("prshard: serving /metrics on %s", mln.Addr())
		if onMetrics != nil {
			onMetrics(mln.Addr().String())
		}
		go func() {
			if err := obs.ServeListener(ctx, mln, mmux); err != nil {
				log.Printf("prshard: metrics listener: %v", err)
			}
		}()
	}
	if o.pprof != "" {
		log.Printf("prshard: serving pprof on %s", o.pprof)
		go func() {
			// nil handler would also work: the pprof import registers
			// itself on http.DefaultServeMux.
			if err := obs.ListenAndServe(ctx, o.pprof, http.DefaultServeMux); err != nil {
				log.Printf("prshard: pprof listener: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	log.Printf("prshard: serving shard RPC on %s", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	log.Printf("prshard: graceful shutdown after %d queries", srv.Queries())
	return 0
}
