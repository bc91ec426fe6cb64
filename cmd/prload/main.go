// Command prload drives a running top-k PageRank query service — a
// single-node prserve or a prserve -shards router — over HTTP with a
// deterministic, Zipf-skewed workload and emits a JSON latency report
// in the prload report schema (loadgen.BenchDoc).
//
// Usage:
//
//	prserve -gen twitterlike -n 50000 -addr 127.0.0.1:8080 &
//	prload -url http://127.0.0.1:8080 -queries 4000 -warmup 500 -out LOAD.json
//	prload -url http://127.0.0.1:8080 -queries 10000 -concurrency 16
//	prload -url http://127.0.0.1:8080 -open -rate 2000 -queries 8000
//	prload -url http://127.0.0.1:8080 -mix topk=1 -ramp 4
//
// The report lists, per endpoint and in aggregate: queries/s, latency
// percentiles (p50/p90/p95/p99/max, milliseconds) and error counts.
// Same -seed and flags against the same graph reproduce the exact same
// query schedule. Exit codes: 0 on a clean run, 1 when the run fails or
// any query errored, 2 on usage errors.
//
// What the server publishes is asked, not passed. One GET /v1/stats
// before the first query reads the vertex id space of rank and ppr
// traffic (graph.vertices on a single node, the sum of shards[].owned
// on a router); a server that cannot answer it fails the run there,
// with its error envelope, before anything else is sent. <url>/metrics
// is scraped before the first warmup query and after the last measured
// one; what the counters did in between is the prload/server entry
// (this run's cache hit rates, coalesced builds, degraded serves — not
// the server's lifetime) and, from a router, prload/network (shard wire
// bytes per query). A server without /metrics (404) gets neither.
// -metrics-out FILE writes the second scrape as it came.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve/api"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// options are prload's flags.
type options struct {
	load                      loadgen.Config
	url, mix, out, metricsOut string
	timeout                   time.Duration
}

// newFlags declares prload's flag set, writing usage to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("prload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.url, "url", "", "base URL of the running prserve (single node or router) to drive; required")
	fs.IntVar(&o.load.Queries, "queries", 4000, "measured query count")
	fs.IntVar(&o.load.Warmup, "warmup", 500, "warmup queries excluded from stats")
	fs.IntVar(&o.load.Concurrency, "concurrency", 8, "closed-loop workers / open-loop stat shards")
	fs.IntVar(&o.load.RampStages, "ramp", 1, "closed-loop ramp stages (concurrency rises linearly across them)")
	fs.BoolVar(&o.load.OpenLoop, "open", false, "open loop: fixed arrival schedule instead of back-to-back workers")
	fs.Float64Var(&o.load.Rate, "rate", 0, "open-loop arrival rate, queries/s (required with -open)")
	fs.StringVar(&o.mix, "mix", "", "query mix weights, e.g. topk=0.6,rank=0.3,stats=0.1 (default that; add ppr=W for personalized-PageRank traffic)")
	fs.Float64Var(&o.load.ZipfS, "zipf-s", 1.1, "key-popularity Zipf exponent for k and vertex draws")
	fs.IntVar(&o.load.MaxK, "maxk", 100, "upper bound of the k that topk and ppr queries draw (keep it within the server's -maxk / -ppr-maxk)")
	fs.Uint64Var(&o.load.Seed, "seed", 1, "schedule seed: fixes every query of the run")
	fs.StringVar(&o.out, "out", "-", "report path ('-' = stdout)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
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
	usage := func(err error) int {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "prload: %v\n", err)
		return 1
	}
	if o.url == "" {
		return usage(errors.New("-url is required: prload drives a running prserve"))
	}
	base := strings.TrimSuffix(o.url, "/")
	cfg := o.load
	if o.mix != "" {
		m, err := parseMix(o.mix)
		if err != nil {
			return usage(err)
		}
		cfg.Mix = m
	}
	// Workload mistakes (open loop without -rate, bad mix weights) are usage
	// errors; a placeholder stands in for the id space the server will name.
	pre := cfg
	pre.Vertices = 1
	if err := pre.Validate(); err != nil {
		return usage(err)
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	var err error
	if cfg.Vertices, err = vertices(ctx, base); err != nil {
		return fail(err)
	}
	before, _, err := scrape(ctx, base)
	if err != nil {
		return fail(err)
	}
	if before == nil && o.metricsOut != "" {
		return fail(fmt.Errorf("-metrics-out: %s/metrics answered 404", base))
	} else if before == nil {
		fmt.Fprintf(stderr, "prload: %s/metrics answered 404: no prload/server entry\n", base)
	}
	fmt.Fprintf(stderr, "prload: %d warmup + %d measured queries against %s (%d vertices)\n", cfg.Warmup, cfg.Queries, base, cfg.Vertices)
	start := time.Now()
	rep, err := loadgen.Run(ctx, cfg, loadgen.NewHTTPTarget(base, cfg.Concurrency))
	if err != nil {
		return fail(err)
	}
	total := rep.Total()
	fmt.Fprintf(stderr, "prload: %d queries in %.2fs (%.0f queries/s, %d errors, p99 %v)\n",
		total.Count, time.Since(start).Seconds(), rep.QueriesPerSecond(),
		total.Errors, total.Hist.QuantileDuration(0.99))

	doc := rep.BenchDoc("prload", map[string]string{"seed": strconv.FormatUint(cfg.Seed, 10), "target": o.url})
	if before != nil {
		series, exposition, err := scrape(ctx, base)
		if err != nil {
			return fail(err)
		}
		for ref := range series {
			series[ref] -= before[ref] // what the counter did during the run
		}
		doc.Benchmarks = append(doc.Benchmarks, serverEntries(series)...)
		if o.metricsOut != "" {
			if err := os.WriteFile(o.metricsOut, exposition, 0o644); err != nil {
				return fail(err)
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if o.out == "-" {
		stdout.Write(data)
	} else if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return fail(err)
	}
	if total.Errors > 0 {
		return fail(fmt.Errorf("%d queries failed", total.Errors))
	}
	return 0
}

// get fetches url; a status other than 200 is an error carrying the
// body, which from this service is the JSON error envelope.
func get(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.StatusCode, err
}

// vertices asks the server at base for the id space of rank and ppr
// traffic: a single node's /v1/stats names its graph's vertex count, a
// router's lists how many vertices each shard owns.
func vertices(ctx context.Context, base string) (int, error) {
	body, _, err := get(ctx, base+"/v1/stats")
	if err != nil {
		return 0, err
	}
	var st struct {
		Graph  api.GraphStats    `json:"graph"`
		Shards []api.ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("GET %s/v1/stats: %w", base, err)
	}
	n := st.Graph.Vertices
	for _, sh := range st.Shards {
		n += sh.Owned
	}
	return n, nil
}

// scrape fetches and parses base's Prometheus exposition, which both
// planes mount on the query listener; all nil when it is not there.
func scrape(ctx context.Context, base string) (map[string]float64, []byte, error) {
	exposition, status, err := get(ctx, base+"/metrics")
	if status == http.StatusNotFound {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	series, err := obs.ParseText(exposition)
	return series, exposition, err
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// serverEntries condenses what the server's counters did during the
// run into report entries. prload/server is always there: absent
// families read as 0 (a router exposition has no serve_* families and
// vice versa), so one shape covers both targets. A router's series put
// prload/network, the shard wire bytes per routed query, in front of it.
func serverEntries(series map[string]float64) []loadgen.BenchEntry {
	sum := func(family string) float64 { return obs.FamilySum(series, family) }
	requests := sum("serve_requests_total") + sum("router_requests_total")
	topkHits := sum("serve_topk_cache_hits_total")
	pprHits, pprReqs := sum("ppr_cache_hits_total"), sum("ppr_requests_total")
	pageHits, pageMisses := sum("graph_page_cache_hits_total"), sum("graph_page_cache_misses_total")
	walkSteps := sum("ppr_walk_steps_total")
	var entries []loadgen.BenchEntry
	if routed, router := series["router_requests_total"]; router {
		sent, recv := sum("router_shard_bytes_sent_total"), sum("router_shard_bytes_recv_total")
		entries = append(entries, loadgen.BenchEntry{
			Name:       "prload/network",
			Iterations: int64(routed),
			Metrics:    map[string]float64{"bytesPerQuery": ratio(sent+recv, routed), "bytesSent": sent, "bytesRecv": recv},
		})
	}
	return append(entries, loadgen.BenchEntry{
		Name:       "prload/server",
		Iterations: int64(requests),
		Metrics: map[string]float64{
			"requests":        requests,
			"topkCacheHits":   topkHits,
			"cacheHitRate":    ratio(topkHits, series[`serve_request_seconds_count{endpoint="topk"}`]),
			"coalesced":       sum("serve_coalesced_total"),
			"epochFallbacks":  sum("router_epoch_fallbacks_total"),
			"topkIndexHits":   sum("router_topk_index_hits_total"),
			"topkRefetches":   sum("router_topk_refetches_total"),
			"rankRouted":      sum("router_rank_routed_total"),
			"rankIndexHits":   sum("router_rank_index_hits_total"),
			"degradedServes":  sum("router_degraded_total"),
			"rpcRetries":      sum("router_shard_rpc_retries_total"),
			"pprQueries":      pprReqs,
			"pprCacheHits":    pprHits,
			"pprCacheHitRate": ratio(pprHits, pprReqs),
			"pprWalks":        sum("ppr_walks_total"),
			"pprTruncated":    sum("ppr_truncated_total"),
			"pprUnsupported":  sum("router_ppr_unsupported_total"),
			// Page-cache behavior under a -graph-mem budget; all 0 for
			// fully resident graphs.
			"pageCacheHits":      pageHits,
			"pageCacheMisses":    pageMisses,
			"pageCacheHitRate":   ratio(pageHits, pageHits+pageMisses),
			"pageCacheEvictions": sum("graph_page_cache_evictions_total"),
			"walkSteps":          walkSteps,
			"walkPageLocality":   ratio(sum("ppr_walk_page_local_steps_total"), walkSteps),
			"walkWaitRate":       ratio(sum("ppr_walk_waits_total"), walkSteps), // the share of steps that waited for a page load
		},
	})
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
