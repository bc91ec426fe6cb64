package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// metricDef names one metric with its unit and direction. The two
// tables below are the benchmark's vocabulary; BENCHMARK.json repeats
// them (bench_test.go keeps the two in step) and adds the regression
// bound of each end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees. Every workload
// emits every one of them on an untraced run (-trace 0). On `refresh`
// one operation is one Refresher.Refresh, so throughput_qps counts
// refreshes per second and the latencies time one refresh.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_qps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"accuracy_mass100", "ratio", "higher"},
	{"refresh_net_mb", "MB", "lower"},
}

// perLayer are the ledger's metrics: one module each, timed from
// outside through the module's public functions or read from its public
// counters. Every workload emits every one of them on a traced run
// (-trace 1); a layer that does no work on a workload reads 0 there.
var perLayer = []metricDef{
	// Whole-run figures that have no bound of their own. The tail of the
	// quiet quarter is one of them: on the reference box everything above
	// a loopback request's median moves by 15-25 % between identical runs.
	{"failed_ratio", "ratio", "lower"},
	{"refresh_s", "s", "lower"},
	{"latency_p99_ms", "ms", "lower"},

	{"gstore.open_resident_ms", "ms", "lower"},
	{"gstore.open_paged_ms", "ms", "lower"},

	{"pcache.view_hit_ns", "ns", "lower"},
	{"pcache.view_miss_ns", "ns", "lower"},
	{"pcache.view_hit_allocs", "count", "lower"},
	{"pcache.hit_ratio", "ratio", "higher"},
	{"pcache.misses_per_query", "count", "lower"},
	{"pcache.evictions_per_query", "count", "lower"},
	{"pcache.read_kb_per_query", "KB", "lower"},

	{"graph.outat_resident_ns", "ns", "lower"},
	{"graph.outat_paged_ns", "ns", "lower"},
	{"graph.outdegree_ns", "ns", "lower"},
	{"graph.outat_paged_allocs", "count", "lower"},

	{"rng.derive_ns", "ns", "lower"},
	{"rng.derive_allocs", "count", "lower"},
	{"rng.geometric_ns", "ns", "lower"},

	{"serve.ppr_topk_us", "us", "lower"},
	{"serve.ppr_topk_allocs", "count", "lower"},
	{"serve.ppr_topk_paged_us", "us", "lower"},
	{"serve.walks_per_s", "1/s", "higher"},
	{"serve.walk_page_locality", "ratio", "higher"},

	{"serve.handler_topk_ns", "ns", "lower"},
	{"serve.handler_rank_ns", "ns", "lower"},
	{"serve.handler_stats_ns", "ns", "lower"},
	{"serve.handler_ppr_hit_ns", "ns", "lower"},
	{"serve.handler_topk_allocs", "count", "lower"},
	{"serve.handler_rank_allocs", "count", "lower"},
	{"serve.snapshot_topk_ns", "ns", "lower"},
	{"serve.topk_cache_hit_ratio", "ratio", "higher"},
	{"serve.ppr_cache_hit_ratio", "ratio", "higher"},
	{"serve.ppr_truncated_ratio", "ratio", "lower"},
	{"serve.coalesced_per_kq", "count", "higher"},
	{"serve.http_overhead_us", "us", "lower"},

	{"serve.build_estimate_s", "s", "lower"},
	{"serve.build_index_s", "s", "lower"},
	{"serve.snapshot_save_ms", "ms", "lower"},
	{"serve.snapshot_load_ms", "ms", "lower"},

	{"topk.top100_ms", "ms", "lower"},
	{"topk.subset100_us", "us", "lower"},
	{"topk.subset10_us", "us", "lower"},
	{"topk.merge4x100_us", "us", "lower"},

	{"router.handler_topk_pipe_us", "us", "lower"},
	{"router.handler_topk_tcp_us", "us", "lower"},
	{"router.handler_rank_tcp_us", "us", "lower"},
	{"router.handler_topk_tcp_allocs", "count", "lower"},
	{"router.wire_bytes_per_query", "B", "lower"},
	{"router.req_bytes_per_query", "B", "lower"},
	{"router.retries", "count", "lower"},
	{"router.degraded", "count", "lower"},
	{"router.epoch_fallbacks", "count", "lower"},
	{"router.owned_vertices_s", "s", "lower"},

	{"frogwild.run_s", "s", "lower"},
	{"frogwild.net_bytes", "B", "lower"},
	{"frogwild.gather_bytes", "B", "lower"},
	{"frogwild.sync_bytes", "B", "lower"},
	{"frogwild.signal_bytes", "B", "lower"},
	{"frogwild.sim_s", "s", "lower"},
	{"frogwild.serialwalk_s", "s", "lower"},
	{"frogwild.speedup_vs_glpr2", "ratio", "higher"},
	{"frogwild.net_ratio_vs_glpr2", "ratio", "lower"},
	{"gas.vertex_ops_per_s", "1/s", "higher"},
	{"gas.edge_ops", "count", "lower"},
	{"cluster.layout_s", "s", "lower"},
	{"cluster.replication_factor", "ratio", "lower"},
	{"glpr.run2_s", "s", "lower"},
	{"glpr.net2_bytes", "B", "lower"},
	{"pagerank.exact_s", "s", "lower"},

	{"obs.latency_observe_ns", "ns", "lower"},
	{"obs.scrape_ms", "ms", "lower"},

	// Live spans of the traced phase: medians of self time, a span minus
	// the part of it its child spans cover.
	{"http.client_self_us", "us", "lower"},
	{"serve.handler_self_us", "us", "lower"},
	{"router.handler_self_us", "us", "lower"},
	{"router.rpc_self_us", "us", "lower"},
	{"router.fanout_skew_us", "us", "lower"},
	{"shard.handle_self_us", "us", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "higher"},
}

// metricUnits maps every known metric name to its unit.
var metricUnits = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics. Names come from the tables above
// and each is set once: a misspelt or repeated name is a harness bug and
// fails the run instead of producing a second series.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the tables of metrics.go", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("bench: metric %q emitted twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %q is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// only returns the subset of m named by defs, failing on a gap.
func (m metricSet) only(defs []metricDef) (metricSet, error) {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = v
	}
	return out, nil
}

// The percentile rule, in exact ranks so no rounding can shave a sample
// off: the median is the sample of rank ceil(n/2), and the tail metric
// is p99 by nearest rank when the sample supports it, otherwise the
// highest rank that still has at least ten samples beyond it, and never
// below the median.
func medianRank(n int) int { return (n + 1) / 2 }

func tailRank(n int) int {
	p99 := (99*n + 99) / 100 // ceil(0.99 n)
	return max(medianRank(n), min(p99, n-10))
}

// latencySummary is what a timed phase reports about its raw samples.
type latencySummary struct {
	Samples int
	P50     float64 // ms
	Tail    float64 // ms, at TailP
	TailP   float64
}

// summarize sorts the raw nanosecond samples in place and reads the
// exact percentiles off them.
func summarize(ns []int64) latencySummary {
	n := len(ns)
	if n == 0 {
		return latencySummary{}
	}
	slices.Sort(ns)
	return latencySummary{
		Samples: n,
		P50:     float64(ns[medianRank(n)-1]) / 1e6,
		Tail:    float64(ns[tailRank(n)-1]) / 1e6,
		TailP:   float64(tailRank(n)) / float64(n),
	}
}

// quietShare is the part of a timed phase the end-to-end throughput and
// latencies are read from: its fastest quarter.
const quietShare = 4

// quiet returns the fastest quarter of a phase's slices, at least one.
// The reference box is a few cores of a shared host whose neighbours
// slow the same code down by a tenth to a half for seconds or minutes at
// a time and never speed it up, so the slices that completed the most
// work per second are the ones that measured the program; a mean over
// the whole phase measures the neighbours. The rule is fixed here and is
// the same on both sides of any comparison, and a slowdown of the
// program's own (a lock, a collection, a slower kernel) is in every
// slice, the quiet ones too.
func quiet(all []slice) []slice {
	s := slices.Clone(all)
	slices.SortStableFunc(s, func(a, b slice) int { return cmp.Compare(b.rate(), a.rate()) })
	return s[:(len(s)+quietShare-1)/quietShare]
}

// pool returns the slices' total length in seconds and all their samples.
func pool(kept []slice) (seconds float64, lat []int64) {
	for _, s := range kept {
		seconds += s.Seconds
		lat = append(lat, s.Lat...)
	}
	return seconds, lat
}

// median returns the middle of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
