// Command prload drives the top-k PageRank query service with a
// deterministic, Zipf-skewed workload and emits a JSON latency report
// in the benchreport schema, so load-test results slot into the same
// BENCH_* artifact trajectory the benchmarks feed and `benchreport
// compare` can gate regressions against a committed baseline.
//
// Three targets:
//
//   - In-process (default): builds a graph and a snapshot-serving
//     handler in this process and drives it directly — no sockets, so
//     the measurement isolates the serving path. This is what the CI
//     perf gate runs.
//   - Sharded (-shards N): runs N shard RPC workers on TCP loopback
//     listeners over one shared snapshot, fronted by the exact top-k
//     merge router, and drives the router. The shard hops cross real
//     sockets, so the report gains a prload/network entry with the
//     measured wire bytes per query.
//   - Live (-url): drives a running prserve over real HTTP, measuring
//     full round-trip latency.
//
// Usage:
//
//	prload -gen twitterlike -n 50000 -queries 4000 -warmup 500 -out LOAD.json
//	prload -gen twitterlike -n 50000 -shards 4 -queries 4000
//	prload -url http://localhost:8080 -queries 10000 -concurrency 16
//	prload -gen twitterlike -n 50000 -open -rate 2000 -queries 8000
//	prload -gen twitterlike -n 20000 -mix topk=1 -ramp 4
//
// The report lists, per endpoint and in aggregate: queries/s, latency
// percentiles (p50/p90/p95/p99/max, milliseconds) and error counts.
// Same -seed and flags reproduce the exact same query schedule. Exit
// codes: 0 on a clean run, 1 when the run fails or any query errored,
// 2 on usage errors.
//
// Server-side counters ride along: after the run, prload reads the
// target's Prometheus registry (in-process and sharded targets
// directly; live targets via -metrics-url http://host:port/metrics)
// and embeds cache hit rate, coalesced builds, epoch fallbacks and
// degraded serves as a prload/server entry in the report, so the
// benchfmt trajectory captures server behavior, not just client-side
// latency. -metrics-out FILE additionally writes the raw exposition.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body; see the package comment for the exit
// code contract.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "", "drive a live server at this base URL instead of in-process")
		path     = fs.String("graph", "", "in-process: graph file (gstore CSR, binary, or edge list; auto-detected)")
		cache    = fs.String("graph-cache", "", "in-process: gstore CSR cache file — mmap it if present, else build from -graph/-gen and save it")
		graphMem = fs.String("graph-mem", "", "in-process: page adjacency from the gstore file under this byte budget (e.g. 512MiB); needs -graph-cache or a .csr -graph")
		relabel  = fs.Bool("graph-relabel", false, "in-process: degree-order vertex rows when building the graph cache (external ids unchanged)")
		snapDir  = fs.String("snapshot-dir", "", "in-process: warm-start the served snapshot from this directory (and persist the built one there), like prserve")
		genType  = fs.String("gen", "twitterlike", "in-process: generator, twitterlike|livejournallike")
		n        = fs.Int("n", 50000, "in-process: vertex count when generating")
		engine   = fs.String("engine", "frogwild", "in-process: snapshot engine, frogwild|glpr|exact")
		machines = fs.Int("machines", 16, "in-process: simulated cluster size")
		nshards  = fs.Int("shards", 0, "sharded mode: run N shard RPC workers on TCP loopback and drive the merge router (0 = single-node in-process)")
		seed     = fs.Uint64("seed", 1, "workload (and in-process graph/snapshot) seed")
		queries  = fs.Int("queries", 4000, "measured query count")
		warmup   = fs.Int("warmup", 500, "warmup queries excluded from stats")
		conc     = fs.Int("concurrency", 8, "closed-loop workers / open-loop stat shards")
		ramp     = fs.Int("ramp", 1, "closed-loop ramp stages (concurrency rises linearly across them)")
		open     = fs.Bool("open", false, "open loop: fixed arrival schedule instead of back-to-back workers")
		rate     = fs.Float64("rate", 0, "open-loop arrival rate, queries/s (required with -open)")
		mix      = fs.String("mix", "", "query mix weights, e.g. topk=0.6,rank=0.3,stats=0.1 (default that; add ppr=W for personalized-PageRank traffic)")
		zipfS    = fs.Float64("zipf-s", 1.1, "key-popularity Zipf exponent for k and vertex draws")
		maxK     = fs.Int("maxk", 100, "topk k parameter upper bound")
		vertices = fs.Int("vertices", 0, "rank-query vertex id space (default: the graph's size; required with -url when rank traffic is in the mix)")
		out      = fs.String("out", "-", "report path ('-' = stdout)")
		timeout  = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		metURL   = fs.String("metrics-url", "", "with -url: scrape this /metrics endpoint after the run for the prload/server entry")
		metOut   = fs.String("metrics-out", "", "write the server's Prometheus exposition here after the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var memBytes int64
	if *graphMem != "" {
		var err error
		if memBytes, err = repro.ParseByteSize(*graphMem); err != nil {
			fmt.Fprintf(stderr, "prload: -graph-mem: %v\n", err)
			fs.Usage()
			return 2
		}
	}

	cfg := loadgen.Config{
		Seed:        *seed,
		Queries:     *queries,
		Warmup:      *warmup,
		Concurrency: *conc,
		RampStages:  *ramp,
		OpenLoop:    *open,
		Rate:        *rate,
		ZipfS:       *zipfS,
		MaxK:        *maxK,
		Vertices:    *vertices,
	}
	if *mix != "" {
		m, err := parseMix(*mix)
		if err != nil {
			fmt.Fprintf(stderr, "prload: %v\n", err)
			fs.Usage()
			return 2
		}
		cfg.Mix = m
	}

	// Workload-config mistakes (open loop without -rate, rank traffic
	// against -url without -vertices, bad mix weights) are usage
	// errors, caught before the potentially expensive graph and
	// snapshot build. In-process runs fill Vertices from the graph, so
	// a placeholder stands in for that one field here.
	pre := cfg
	if *url == "" && pre.Vertices == 0 {
		pre.Vertices = 1
	}
	if err := pre.Validate(); err != nil {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		fs.Usage()
		return 2
	}
	if *metOut != "" && *url != "" && *metURL == "" {
		fmt.Fprintf(stderr, "prload: -metrics-out with -url needs -metrics-url to scrape\n")
		fs.Usage()
		return 2
	}

	var target loadgen.Target
	var rt *router.Router
	var srv *serve.Server
	env := map[string]string{"seed": strconv.FormatUint(*seed, 10)}
	if *url != "" {
		target = loadgen.HTTPTarget{BaseURL: *url, Client: &http.Client{}}
		env["target"] = *url
	} else if *nshards > 0 {
		shardCtx, stopShards := context.WithCancel(ctx)
		defer stopShards()
		var vcount int
		var err error
		rt, vcount, err = buildSharded(shardCtx, *path, *cache, *genType, *n, *engine, *machines, *maxK, *seed, *nshards, memBytes, *relabel)
		if err != nil {
			fmt.Fprintf(stderr, "prload: %v\n", err)
			return 1
		}
		if cfg.Vertices == 0 {
			cfg.Vertices = vcount
		}
		target = loadgen.HandlerTarget{Handler: rt}
		env["target"] = fmt.Sprintf("sharded(%d)", *nshards)
		env["shards"] = strconv.Itoa(*nshards)
		env["engine"] = *engine
		env["graph"] = fmt.Sprintf("%s n=%d", *genType, vcount)
	} else {
		var vcount int
		var err error
		srv, vcount, err = buildInProcess(*path, *cache, *snapDir, *genType, *n, *engine, *machines, *maxK, *seed, memBytes, *relabel)
		if err != nil {
			fmt.Fprintf(stderr, "prload: %v\n", err)
			return 1
		}
		if cfg.Vertices == 0 {
			cfg.Vertices = vcount
		}
		target = loadgen.HandlerTarget{Handler: srv}
		env["target"] = "in-process"
		env["engine"] = *engine
		env["graph"] = fmt.Sprintf("%s n=%d", *genType, vcount)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	fmt.Fprintf(stderr, "prload: %d warmup + %d measured queries against %s\n",
		cfg.Warmup, cfg.Queries, env["target"])
	start := time.Now()
	rep, err := loadgen.Run(ctx, cfg, target)
	if err != nil {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		return 1
	}
	total := rep.Total()
	fmt.Fprintf(stderr, "prload: %d queries in %.2fs (%.0f queries/s, %d errors, p99 %v)\n",
		total.Count, time.Since(start).Seconds(), rep.QueriesPerSecond(),
		total.Errors, total.Hist.QuantileDuration(0.99))

	doc := rep.BenchDoc("prload", env)
	if rt != nil {
		// Measured wire traffic across the shard connections. The metric
		// names carry no "/s" suffix, so `benchreport compare` reports
		// them without gating on them.
		ns := rt.NetworkStats()
		doc.Benchmarks = append(doc.Benchmarks, loadgen.BenchEntry{
			Name:       "prload/network",
			Iterations: int64(ns.Queries),
			Metrics: map[string]float64{
				"bytesPerQuery": ns.BytesPerQuery,
				"bytesSent":     float64(ns.BytesSent),
				"bytesRecv":     float64(ns.BytesRecv),
			},
		})
		fmt.Fprintf(stderr, "prload: sharded wire traffic: %.0f bytes/query over %d queries (%d degraded, %d epoch fallbacks, %d retries)\n",
			ns.BytesPerQuery, ns.Queries, rt.Degraded(), rt.EpochFallbacks(), rt.Retries())
	}
	exposition, err := gatherMetrics(srv, rt, *metURL)
	if err != nil {
		fmt.Fprintf(stderr, "prload: metrics: %v\n", err)
		return 1
	}
	if exposition != nil {
		entry, err := serverEntry(exposition)
		if err != nil {
			fmt.Fprintf(stderr, "prload: metrics: %v\n", err)
			return 1
		}
		doc.Benchmarks = append(doc.Benchmarks, entry)
		if *metOut != "" {
			if err := os.WriteFile(*metOut, exposition, 0o644); err != nil {
				fmt.Fprintf(stderr, "prload: %v\n", err)
				return 1
			}
		}
	} else if *metOut != "" {
		fmt.Fprintf(stderr, "prload: -metrics-out needs an in-process target or -metrics-url\n")
		return 2
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "-" {
		stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		return 1
	}
	if total.Errors > 0 {
		fmt.Fprintf(stderr, "prload: %d queries failed\n", total.Errors)
		return 1
	}
	return 0
}

// gatherMetrics returns the target's Prometheus exposition after the
// run: rendered straight from the in-process registry (single-node or
// router target), fetched over HTTP when -metrics-url names a live
// endpoint, nil when the target exposes neither.
func gatherMetrics(srv *serve.Server, rt *router.Router, metricsURL string) ([]byte, error) {
	if metricsURL != "" {
		resp, err := http.Get(metricsURL)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", metricsURL, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	var reg *obs.Registry
	switch {
	case rt != nil:
		reg = rt.Metrics()
	case srv != nil:
		reg = srv.Metrics()
	default:
		return nil, nil
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serverEntry condenses the exposition into the prload/server report
// entry. Absent families read as 0 (a router exposition has no serve_*
// families and vice versa), so one entry shape covers both targets.
// The metric names carry no "/s" suffix: `benchreport compare` reports
// them without gating on them.
func serverEntry(exposition []byte) (loadgen.BenchEntry, error) {
	series, err := obs.ParseText(exposition)
	if err != nil {
		return loadgen.BenchEntry{}, err
	}
	requests := obs.FamilySum(series, "serve_requests_total") +
		obs.FamilySum(series, "router_requests_total")
	topkHits := obs.FamilySum(series, "serve_topk_cache_hits_total")
	topkReqs := series[`serve_request_seconds_count{endpoint="topk"}`]
	hitRate := 0.0
	if topkReqs > 0 {
		hitRate = topkHits / topkReqs
	}
	pprHits := obs.FamilySum(series, "ppr_cache_hits_total")
	pprReqs := obs.FamilySum(series, "ppr_requests_total")
	pprHitRate := 0.0
	if pprReqs > 0 {
		pprHitRate = pprHits / pprReqs
	}
	pageHits := obs.FamilySum(series, "graph_page_cache_hits_total")
	pageMisses := obs.FamilySum(series, "graph_page_cache_misses_total")
	pageHitRate := 0.0
	if pageHits+pageMisses > 0 {
		pageHitRate = pageHits / (pageHits + pageMisses)
	}
	walkSteps := obs.FamilySum(series, "ppr_walk_steps_total")
	walkLocal := obs.FamilySum(series, "ppr_walk_page_local_steps_total")
	walkWaits := obs.FamilySum(series, "ppr_walk_waits_total")
	walkLocality, walkWaitRate := 0.0, 0.0
	if walkSteps > 0 {
		walkLocality = walkLocal / walkSteps
		walkWaitRate = walkWaits / walkSteps
	}
	return loadgen.BenchEntry{
		Name:       "prload/server",
		Iterations: int64(requests),
		Metrics: map[string]float64{
			"requests":        requests,
			"topkCacheHits":   topkHits,
			"cacheHitRate":    hitRate,
			"coalesced":       obs.FamilySum(series, "serve_coalesced_total"),
			"epochFallbacks":  obs.FamilySum(series, "router_epoch_fallbacks_total"),
			"topkIndexHits":   obs.FamilySum(series, "router_topk_index_hits_total"),
			"topkRefetches":   obs.FamilySum(series, "router_topk_refetches_total"),
			"rankRouted":      obs.FamilySum(series, "router_rank_routed_total"),
			"degradedServes":  obs.FamilySum(series, "router_degraded_total"),
			"rpcRetries":      obs.FamilySum(series, "router_shard_rpc_retries_total"),
			"pprQueries":      pprReqs,
			"pprCacheHits":    pprHits,
			"pprCacheHitRate": pprHitRate,
			"pprWalks":        obs.FamilySum(series, "ppr_walks_total"),
			"pprTruncated":    obs.FamilySum(series, "ppr_truncated_total"),
			"pprUnsupported":  obs.FamilySum(series, "router_ppr_unsupported_total"),
			// Page-cache behavior under a -graph-mem budget; all 0 for
			// fully resident graphs.
			"pageCacheHits":      pageHits,
			"pageCacheMisses":    pageMisses,
			"pageCacheHitRate":   pageHitRate,
			"pageCacheEvictions": obs.FamilySum(series, "graph_page_cache_evictions_total"),
			"walkSteps":          walkSteps,
			"walkPageLocality":   walkLocality,
			"walkWaitRate":       walkWaitRate, // the share of steps that waited for a page load
		},
	}, nil
}

// buildSharded assembles the in-process sharded target: one graph and
// one deterministic snapshot shared by N shard RPC workers, each
// serving its HDRF partition on a TCP loopback listener, fronted by
// the merge router. The sockets are real, so the router's byte meters
// measure actual wire traffic per query. The workers live until ctx is
// cancelled.
func buildSharded(ctx context.Context, path, cache, genType string, n int, engine string, machines, maxK int, seed uint64, shards int, memBytes int64, relabel bool) (*router.Router, int, error) {
	eng, err := serve.ParseEngine(engine)
	if err != nil {
		return nil, 0, err
	}
	g, err := openGraph(path, cache, genType, n, seed, memBytes, relabel)
	if err != nil {
		return nil, 0, err
	}
	snap, err := serve.Build(g, serve.BuildConfig{
		Engine: eng, Machines: machines, Seed: seed, MaxK: maxK,
	})
	if err != nil {
		return nil, 0, err
	}
	store := serve.NewStore()
	store.Publish(snap)

	owned, err := router.Partition(g, shards, seed)
	if err != nil {
		return nil, 0, err
	}
	clients := make([]*router.ShardClient, shards)
	for i := 0; i < shards; i++ {
		srv := router.NewShardServer(i, shards, owned[i], store)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		go srv.Serve(ctx, ln) //nolint:errcheck // lives until ctx cancel
		addr := ln.Addr().String()
		clients[i] = router.NewShardClient(i, addr, router.DialTCP(addr), 5*time.Second)
	}
	return router.New(clients, router.Options{Timeout: 5 * time.Second}), g.NumVertices(), nil
}

// buildInProcess assembles the in-process serving handler: load or
// generate the graph (through the mmap-able gstore cache when
// -graph-cache is set), compute or warm-start the snapshot (through
// -snapshot-dir), wrap it in the query API.
func buildInProcess(path, cache, snapDir, genType string, n int, engine string, machines, maxK int, seed uint64, memBytes int64, relabel bool) (*serve.Server, int, error) {
	eng, err := serve.ParseEngine(engine)
	if err != nil {
		return nil, 0, err
	}
	g, err := openGraph(path, cache, genType, n, seed, memBytes, relabel)
	if err != nil {
		return nil, 0, err
	}
	srv, _, err := serve.NewService(g, serve.ServiceConfig{
		Build: serve.BuildConfig{
			Engine:   eng,
			Machines: machines,
			Seed:     seed,
			MaxK:     maxK,
		},
		SnapshotDir: snapDir,
		// The workload draws ppr k on the same [1, maxK] range as topk
		// k, so the endpoint's k bound must track the flag or a raised
		// -maxk would turn ppr traffic into 400s.
		PPR: serve.PPROptions{MaxK: maxK},
	})
	if err != nil {
		return nil, 0, err
	}
	return srv, g.NumVertices(), nil
}

// openGraph is the graph-acquisition step both in-process targets
// share: the -graph-cache protocol (with optional degree-ordered
// relabeling at cache-build time), the paged open when a -graph-mem
// budget is set, and the direct paged load when -graph itself is the
// gstore file to page from.
func openGraph(path, cache, genType string, n int, seed uint64, memBytes int64, relabel bool) (*repro.Graph, error) {
	build := func() (*repro.Graph, error) {
		switch {
		case path != "":
			return repro.LoadGraph(path)
		case genType == "twitterlike":
			return repro.TwitterLikeGraph(n, seed)
		case genType == "livejournallike":
			return repro.LiveJournalLikeGraph(n, seed)
		}
		return nil, fmt.Errorf("unknown -gen %q (want twitterlike|livejournallike)", genType)
	}
	if memBytes > 0 && cache == "" && path != "" {
		return repro.LoadGraphPaged(path, memBytes)
	}
	genN := 0
	if path == "" {
		genN = n
	}
	return repro.CachedGraphCheckedWith(cache,
		repro.GraphCacheOptions{Mem: memBytes, Relabel: relabel}, genN, build)
}

// parseMix parses "topk=0.45,rank=0.25,ppr=0.2,stats=0.1" (weights are
// relative; omitted endpoints get weight 0).
func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad mix component %q (want name=weight)", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return m, fmt.Errorf("bad mix weight in %q: %v", part, err)
		}
		switch key {
		case "topk":
			m.TopK = w
		case "rank":
			m.Rank = w
		case "ppr":
			m.PPR = w
		case "stats":
			m.Stats = w
		default:
			return m, fmt.Errorf("unknown mix endpoint %q (want topk|rank|ppr|stats)", key)
		}
	}
	return m, nil
}
