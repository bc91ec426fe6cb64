package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/hist"
)

// LatencyBuckets are the upper bounds, in seconds, of the cumulative
// buckets every Latency renders on /metrics. They span 25µs to 10s —
// the whole range from a cached in-process top-k hit to a degraded
// cross-shard worst case. The underlying hist buckets are far finer
// (<1.6% relative error); rendering coarsens onto these bounds, and a
// sample whose hist bucket straddles a bound is counted under the next
// bound (the hist bucket's upper edge decides), so cumulative counts
// are conservative within the hist quantization.
var LatencyBuckets = []float64{
	0.000025, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered instrument in the text
// exposition format: families sorted by name (HELP/TYPE once per
// family, the first-registered help wins), series within a family
// sorted by label string. The ordering is deterministic for a fixed
// registration set, so output is golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			fmt.Fprintf(bw, "# HELP %s %s\n", s.name, escapeHelp(s.help))
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind)
			lastFamily = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", seriesRef(s.name, s.labels), s.counter.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %s\n", seriesRef(s.name, s.labels), formatFloat(s.gauge.Value()))
		case kindGaugeFunc:
			fmt.Fprintf(bw, "%s %s\n", seriesRef(s.name, s.labels), formatFloat(s.gaugeFn()))
		case kindHistogram:
			writeHistogram(bw, s.name, s.labels, s.latency.Snapshot())
		}
	}
	return bw.Flush()
}

// seriesRef renders `name` or `name{labels}`.
func seriesRef(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// withLabel splices one more label pair onto a rendered label string.
func withLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabelValue(v) + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram renders one latency series as a Prometheus histogram:
// cumulative buckets over LatencyBuckets (in seconds), an +Inf bucket,
// and the exact _sum/_count.
func writeHistogram(w io.Writer, name, labels string, h *hist.Histogram) {
	counts := make([]uint64, len(LatencyBuckets))
	h.Buckets(func(upper int64, count uint64) {
		// First rendered bound that contains the hist bucket entirely.
		i := sort.Search(len(LatencyBuckets), func(i int) bool {
			return float64(upper) <= LatencyBuckets[i]*1e9
		})
		if i < len(counts) {
			counts[i] += count
		}
	})
	var cum uint64
	for i, c := range counts {
		cum += c
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, withLabel(labels, "le", formatFloat(LatencyBuckets[i])), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, withLabel(labels, "le", "+Inf"), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(float64(h.Sum())/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.Count())
}

// braced keeps the _sum/_count lines label-consistent with the bucket
// lines (no braces when the series has no labels).
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Handler returns an http.Handler serving the registry's exposition —
// the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		// A write error here means the scraper went away mid-scrape;
		// there is nobody left to report it to.
		_ = r.WritePrometheus(w)
	})
}

// ParseText parses a text exposition body into a map from rendered
// series reference (name plus label set, exactly as written) to value.
// It is the consumer half of WritePrometheus — prload's scrape
// embedding and the serving planes' counter tests are built on it.
// Comment and blank lines are skipped; a malformed sample line is an
// error.
func ParseText(data []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the field after the last space; labels may
		// contain spaces inside quoted values, so split from the right.
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("obs: malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// FamilySum sums every parsed series belonging to the named family
// (exact-name match before the label braces). Histogram families sum
// their _bucket/_sum/_count series only under those suffixed names,
// never under the base name.
func FamilySum(series map[string]float64, name string) float64 {
	var sum float64
	for ref, v := range series {
		base := ref
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base == name {
			sum += v
		}
	}
	return sum
}
