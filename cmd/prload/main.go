// Command prload drives the top-k PageRank query service with a
// deterministic, Zipf-skewed workload and emits a JSON latency report
// in the prload report schema (loadgen.BenchDoc).
//
// Three targets:
//
//   - In-process (default): builds a graph and a snapshot-serving
//     handler in this process and drives it directly — no sockets, so
//     the measurement isolates the serving path.
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
// report captures server behavior, not just client-side latency.
// -metrics-out FILE additionally writes the raw exposition.
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

	"repro/internal/graph/gio"
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

// options are prload's flags. The graph and engine flags it shares
// with prserve and prshard — they shape the in-process targets — are
// declared by src and build; -seed also fixes the workload, and -maxk
// is also the upper bound of the k the workload draws.
type options struct {
	src   gio.Source
	build serve.BuildConfig
	load  loadgen.Config

	url, snapDir, mix, out, metricsURL, metricsOut string
	shards                                         int
	timeout                                        time.Duration
}

// newFlags declares prload's flag set, writing usage to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{src: gio.Source{Gen: "twitterlike", N: 50000, Seed: 1}}
	fs := flag.NewFlagSet("prload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.src.RegisterFlags(fs)
	o.build.RegisterFlags(fs)
	fs.StringVar(&o.url, "url", "", "drive a live server at this base URL instead of in-process")
	fs.StringVar(&o.snapDir, "snapshot-dir", "", "in-process: warm-start the served snapshot from this directory (and persist the built one there), like prserve")
	fs.IntVar(&o.shards, "shards", 0, "sharded mode: run N shard RPC workers on TCP loopback and drive the merge router (0 = single-node in-process)")
	fs.IntVar(&o.load.Queries, "queries", 4000, "measured query count")
	fs.IntVar(&o.load.Warmup, "warmup", 500, "warmup queries excluded from stats")
	fs.IntVar(&o.load.Concurrency, "concurrency", 8, "closed-loop workers / open-loop stat shards")
	fs.IntVar(&o.load.RampStages, "ramp", 1, "closed-loop ramp stages (concurrency rises linearly across them)")
	fs.BoolVar(&o.load.OpenLoop, "open", false, "open loop: fixed arrival schedule instead of back-to-back workers")
	fs.Float64Var(&o.load.Rate, "rate", 0, "open-loop arrival rate, queries/s (required with -open)")
	fs.StringVar(&o.mix, "mix", "", "query mix weights, e.g. topk=0.6,rank=0.3,stats=0.1 (default that; add ppr=W for personalized-PageRank traffic)")
	fs.Float64Var(&o.load.ZipfS, "zipf-s", 1.1, "key-popularity Zipf exponent for k and vertex draws")
	fs.IntVar(&o.load.Vertices, "vertices", 0, "rank-query vertex id space (default: the graph's size; required with -url when rank traffic is in the mix)")
	fs.StringVar(&o.out, "out", "-", "report path ('-' = stdout)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	fs.StringVar(&o.metricsURL, "metrics-url", "", "with -url: scrape this /metrics endpoint after the run for the prload/server entry")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the server's Prometheus exposition here after the run")
	return fs, o
}

// run is the testable CLI body; see the package comment for the exit
// code contract.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.build.Seed = o.src.Seed
	cfg := o.load
	cfg.Seed = o.src.Seed
	cfg.MaxK = o.build.MaxK
	if o.mix != "" {
		m, err := parseMix(o.mix)
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
	if o.url == "" && pre.Vertices == 0 {
		pre.Vertices = 1
	}
	if err := pre.Validate(); err != nil {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		fs.Usage()
		return 2
	}
	if o.metricsOut != "" && o.url != "" && o.metricsURL == "" {
		fmt.Fprintf(stderr, "prload: -metrics-out with -url needs -metrics-url to scrape\n")
		fs.Usage()
		return 2
	}

	var target loadgen.Target
	var rt *router.Router
	var srv *serve.Server
	env := map[string]string{"seed": strconv.FormatUint(o.src.Seed, 10)}
	if o.url != "" {
		target = loadgen.HTTPTarget{BaseURL: o.url, Client: &http.Client{}}
		env["target"] = o.url
	} else {
		var vcount int
		var err error
		if o.shards > 0 {
			shardCtx, stopShards := context.WithCancel(ctx)
			defer stopShards()
			rt, vcount, err = buildSharded(shardCtx, &o.src, o.build, o.shards)
			target = loadgen.HandlerTarget{Handler: rt}
			env["target"] = fmt.Sprintf("sharded(%d)", o.shards)
			env["shards"] = strconv.Itoa(o.shards)
		} else {
			srv, vcount, err = buildInProcess(&o.src, o.build, o.snapDir)
			target = loadgen.HandlerTarget{Handler: srv}
			env["target"] = "in-process"
		}
		if err != nil {
			fmt.Fprintf(stderr, "prload: %v\n", err)
			return 1
		}
		if cfg.Vertices == 0 {
			cfg.Vertices = vcount
		}
		env["engine"] = string(o.build.Engine)
		env["graph"] = fmt.Sprintf("%s n=%d", o.src.Gen, vcount)
	}

	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
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
		// Measured wire traffic across the shard connections.
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
	exposition, err := gatherMetrics(srv, rt, o.metricsURL)
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
		if o.metricsOut != "" {
			if err := os.WriteFile(o.metricsOut, exposition, 0o644); err != nil {
				fmt.Fprintf(stderr, "prload: %v\n", err)
				return 1
			}
		}
	} else if o.metricsOut != "" {
		fmt.Fprintf(stderr, "prload: -metrics-out needs an in-process target or -metrics-url\n")
		return 2
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if o.out == "-" {
		stdout.Write(data)
	} else if err := os.WriteFile(o.out, data, 0o644); err != nil {
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
func buildSharded(ctx context.Context, src *gio.Source, build serve.BuildConfig, shards int) (*router.Router, int, error) {
	g, err := src.Open()
	if err != nil {
		return nil, 0, err
	}
	snap, err := serve.Build(g, build)
	if err != nil {
		return nil, 0, err
	}
	store := serve.NewStore()
	store.Publish(snap)

	owned, err := router.Partition(g, shards, build.Seed)
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
func buildInProcess(src *gio.Source, build serve.BuildConfig, snapDir string) (*serve.Server, int, error) {
	g, err := src.Open()
	if err != nil {
		return nil, 0, err
	}
	srv, _, err := serve.NewService(g, serve.ServiceConfig{
		Build:       build,
		SnapshotDir: snapDir,
		// The workload draws ppr k on the same [1, maxK] range as topk
		// k, so the endpoint's k bound must track the flag or a raised
		// -maxk would turn ppr traffic into 400s.
		PPR: serve.PPROptions{MaxK: build.MaxK},
	})
	if err != nil {
		return nil, 0, err
	}
	return srv, g.NumVertices(), nil
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
