package loadgen

import (
	"runtime"
	"time"
)

// BenchEntry is one entry of the prload report: the aggregate or one
// endpoint of a load run.
type BenchEntry struct {
	// Name is the entry name (e.g. "prload/topk").
	Name string `json:"name"`
	// Iterations is the entry's measured query count.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every measurement ("queries/s",
	// "p99/ms", ...).
	Metrics map[string]float64 `json:"metrics"`
}

// BenchDoc is the prload report schema: the JSON document `prload -out`
// writes.
type BenchDoc struct {
	// Env holds run-environment entries (goos, goarch, go, and the
	// caller's target/engine/graph/seed).
	Env map[string]string `json:"env"`
	// Benchmarks lists the entries, aggregate first.
	Benchmarks []BenchEntry `json:"benchmarks"`
	// Failed is part of the schema; a load run never sets it (errors
	// are counted per entry).
	Failed bool `json:"failed"`
}

// ms converts a nanosecond quantity to milliseconds for reporting.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// entry renders one endpoint's stats as a benchmark entry. Throughput
// uses the whole measured phase's wall time (endpoints run
// interleaved, not sequentially).
func (r *Report) entry(name string, st Stats) BenchEntry {
	m := map[string]float64{
		"queries/s": 0,
		"errors":    float64(st.Errors),
		"p50/ms":    ms(st.Hist.QuantileDuration(0.50)),
		"p90/ms":    ms(st.Hist.QuantileDuration(0.90)),
		"p95/ms":    ms(st.Hist.QuantileDuration(0.95)),
		"p99/ms":    ms(st.Hist.QuantileDuration(0.99)),
		"max/ms":    ms(time.Duration(st.Hist.Max())),
	}
	if r.Wall > 0 {
		m["queries/s"] = float64(st.Count) / r.Wall.Seconds()
	}
	return BenchEntry{Name: name, Iterations: int64(st.Count), Metrics: m}
}

// BenchDoc renders the report in the prload report schema under the
// given name prefix: one aggregate entry "<prefix>/all" plus one per
// endpoint that saw traffic, with queries/s, latency percentiles in
// milliseconds and the error count as metrics. env entries are merged
// over the standard goos/goarch/cpu header.
func (r *Report) BenchDoc(prefix string, env map[string]string) *BenchDoc {
	doc := &BenchDoc{Env: map[string]string{
		"goos":   runtime.GOOS,
		"goarch": runtime.GOARCH,
		"go":     runtime.Version(),
	}}
	for k, v := range env {
		doc.Env[k] = v
	}
	doc.Benchmarks = append(doc.Benchmarks, r.entry(prefix+"/all", r.Total()))
	for _, ep := range Endpoints {
		if st, ok := r.PerEndpoint[ep]; ok {
			doc.Benchmarks = append(doc.Benchmarks, r.entry(prefix+"/"+string(ep), *st))
		}
	}
	return doc
}
