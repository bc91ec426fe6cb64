// Command prshard is one worker of a sharded top-k PageRank cluster:
// it owns one HDRF partition of the vertex space and answers partial
// top-k/rank queries over a small length-prefixed RPC protocol, to be
// fronted by a prserve router (-shards).
//
// Every shard of a cluster runs with the same -graph/-gen, -shards,
// -engine and -seed flags and a distinct -shard id. Each shard builds
// the same graph and the same deterministic estimate, computes the
// same HDRF layout, and then serves only the vertices whose master
// replica the layout puts on its id — so the shard ownership sets
// partition the vertex space with no coordination, and the router's
// merged top-k is exactly the single-node answer.
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

	"repro"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil, nil))
}

// run is the testable CLI body. onReady, when non-nil, receives the
// bound RPC listen address once the shard is serving; onMetrics
// likewise receives the bound -metrics-addr address.
func run(ctx context.Context, args []string, stderr io.Writer, onReady, onMetrics func(addr string)) int {
	fs := flag.NewFlagSet("prshard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9001", "RPC listen address")
		shard    = fs.Int("shard", 0, "this shard's id, 0-based")
		shards   = fs.Int("shards", 1, "total shard count in the cluster")
		path     = fs.String("graph", "", "graph file (gstore CSR, binary, or edge list; auto-detected)")
		genType  = fs.String("gen", "", "generate instead of load: twitterlike|livejournallike")
		n        = fs.Int("n", 50000, "vertex count when generating")
		cache    = fs.String("graph-cache", "", "gstore CSR cache file: mmap it if present, else build and save it")
		graphMem = fs.String("graph-mem", "", "page adjacency from the gstore file under this byte budget (e.g. 512MiB); needs -graph-cache or a .csr -graph")
		relabel  = fs.Bool("graph-relabel", false, "degree-order vertex rows when building the graph cache (external ids unchanged)")
		engine   = fs.String("engine", "frogwild", "estimate engine: frogwild|glpr|exact")
		machines = fs.Int("machines", 16, "simulated cluster size for the estimate engine")
		maxK     = fs.Int("maxk", serve.DefaultMaxK, "precomputed top index size")
		refresh  = fs.Duration("refresh", 0, "background recompute cadence (0 = serve the initial snapshot forever)")
		seed     = fs.Uint64("seed", 1, "base seed; must match across the cluster and the router's graph")
		metrics  = fs.String("metrics-addr", "", "serve the Prometheus exposition on this HTTP side address (e.g. 127.0.0.1:9101)")
		logReq   = fs.Bool("log-requests", false, "write one JSON line per shard RPC to stderr (rid, op, status, duration)")
		pprof    = fs.String("pprof-addr", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6061)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		fmt.Fprintf(stderr, "prshard: -shard %d out of range for -shards %d\n", *shard, *shards)
		fs.Usage()
		return 2
	}
	eng, err := serve.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		fs.Usage()
		return 2
	}

	buildGraph := func() (*repro.Graph, error) {
		switch {
		case *path != "":
			return repro.LoadGraph(*path)
		case *genType == "twitterlike":
			return repro.TwitterLikeGraph(*n, *seed)
		case *genType == "livejournallike":
			return repro.LiveJournalLikeGraph(*n, *seed)
		}
		return nil, fmt.Errorf("provide -graph FILE, -gen twitterlike|livejournallike, or an existing -graph-cache")
	}
	genN := 0
	if *path == "" && *genType != "" {
		genN = *n
	}
	var memBytes int64
	if *graphMem != "" {
		if memBytes, err = repro.ParseByteSize(*graphMem); err != nil {
			fmt.Fprintf(stderr, "prshard: -graph-mem: %v\n", err)
			fs.Usage()
			return 2
		}
	}
	loadStart := time.Now()
	var g *repro.Graph
	if memBytes > 0 && *cache == "" && *path != "" {
		g, err = repro.LoadGraphPaged(*path, memBytes)
	} else {
		g, err = repro.CachedGraphCheckedWith(*cache,
			repro.GraphCacheOptions{Mem: memBytes, Relabel: *relabel}, genN, buildGraph)
	}
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	defer g.Close()
	loadSeconds := time.Since(loadStart).Seconds()

	partStart := time.Now()
	owned, err := router.OwnedVertices(g, *shards, *shard, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	log.Printf("prshard: shard %d/%d owns %d of %d vertices (graph ready in %.3fs, partition in %.3fs)",
		*shard, *shards, len(owned), g.NumVertices(), loadSeconds, time.Since(partStart).Seconds())

	reg := obs.NewRegistry()
	store := serve.NewStore()
	refresher := serve.NewRefresher(store, serve.EngineBuilder(g, serve.BuildConfig{
		Engine:   eng,
		Machines: *machines,
		Seed:     *seed,
		MaxK:     *maxK,
	}), *refresh)
	refresher.Instrument(reg)
	buildStart := time.Now()
	if _, err := refresher.Refresh(); err != nil {
		fmt.Fprintf(stderr, "prshard: initial snapshot: %v\n", err)
		return 1
	}
	snap := store.Current()
	log.Printf("prshard: snapshot epoch %d (%s, seed %d) ready in %.2fs",
		snap.Epoch, snap.Engine, snap.Seed, time.Since(buildStart).Seconds())
	if *refresh > 0 {
		go refresher.Run(ctx, func(err error) { log.Printf("prshard: refresh: %v", err) })
		log.Printf("prshard: background refresh every %s", *refresh)
	}

	srv := router.NewShardServer(*shard, *shards, owned, store)
	srv.Instrument(reg)
	if *logReq {
		srv.SetRequestLog(obs.NewLogger(stderr))
	}
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
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
	if *pprof != "" {
		log.Printf("prshard: serving pprof on %s", *pprof)
		go func() {
			// nil handler would also work: the pprof import registers
			// itself on http.DefaultServeMux.
			if err := obs.ListenAndServe(ctx, *pprof, http.DefaultServeMux); err != nil {
				log.Printf("prshard: pprof listener: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
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
