// Package obs is the serving stack's observability core: named
// counters, gauges and latency recorders collected in a Registry that
// renders the Prometheus text exposition format, plus structured
// JSON-lines request logging and request-id propagation helpers, and
// Plane: the HTTP middleware, routing table and listener lifecycle the
// single-node server and the router share.
//
// Design constraints, in order:
//
//   - Dependency-free: instruments are thin wrappers over sync/atomic
//     and internal/hist, so every process in the stack (server, router,
//     shard worker, load generator) can afford to be instrumented.
//   - Hot-path cheap: recording into a Counter is one atomic add;
//     recording a latency is one short mutex hold over an integer-only
//     bucket increment. All rendering cost is paid at scrape time.
//   - One source of truth: instruments are free-standing values created
//     by their owners and *registered* into a Registry afterwards, and
//     /metrics is the one surface that renders them: no JSON body
//     carries a second copy of a counter.
//
// Instruments are safe for concurrent use. A Registry is safe to
// register into and scrape concurrently.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches Prometheus label pairs to an instrument. Instruments
// with the same name and different labels form one metric family.
type Labels map[string]string

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates how a registered series renders.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels string // rendered `k="v",...` (no braces), sorted by key
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	latency *Latency
}

// Registry holds registered instruments and renders them as Prometheus
// text exposition. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
	// helpByName pins one HELP/TYPE per family: a second registration
	// under the same name must agree on kind (help may differ; the
	// first registration's help wins at render time).
	kindByName map[string]metricKind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:      make(map[string]*series),
		kindByName: make(map[string]metricKind),
	}
}

// renderLabels serializes labels in sorted key order, Prometheus
// escaped, without surrounding braces ("" for no labels).
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition format's label value escapes.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp applies the exposition format's HELP text escapes.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// register adds s under its (name, labels) key. Registering the same
// series twice, or mixing kinds within one family, is a programming
// error and panics: silent merging would make two instruments look
// like one and defeat the no-drift guarantee.
func (r *Registry) register(s *series) {
	key := s.name + "{" + s.labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric series %s", key))
	}
	if kind, ok := r.kindByName[s.name]; ok && kind != s.kind {
		panic(fmt.Sprintf("obs: metric family %s registered as both %s and %s", s.name, kind, s.kind))
	}
	r.kindByName[s.name] = s.kind
	r.byKey[key] = s
	r.series = append(r.series, s)
}

// RegisterCounter registers an existing counter (created by the
// instrument's owner before a registry existed) and returns it.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) *Counter {
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindCounter, counter: c})
	return c
}

// RegisterGauge registers an existing gauge and returns it.
func (r *Registry) RegisterGauge(name, help string, labels Labels, g *Gauge) *Gauge {
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge evaluated at scrape time — the right
// shape for values derived from live state (snapshot age, epoch)
// rather than accumulated events. fn must be safe for concurrent use
// and must not call back into the registry.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// Latency creates a latency recorder and registers it as a histogram
// family.
func (r *Registry) Latency(name, help string, labels Labels) *Latency {
	l := &Latency{}
	r.RegisterLatency(name, help, labels, l)
	return l
}

// RegisterLatency registers an existing latency recorder and returns
// it.
func (r *Registry) RegisterLatency(name, help string, labels Labels, l *Latency) *Latency {
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindHistogram, latency: l})
	return l
}

// snapshotSeries returns a stable-ordered copy of the registered
// series: families sorted by name, series within a family by label
// string. Scrapes render from this copy so registration during a
// scrape cannot corrupt iteration.
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	out := append([]*series(nil), r.series...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
