package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gstore"
	"repro/internal/serve"
)

// runConfig is one measurement of one workload. The phase lengths are
// fixed by the benchmark (BENCHMARK.json's run_seconds through
// -seconds) and identical on both sides of any comparison; only the
// tests shrink them.
type runConfig struct {
	Workload workloadDef
	Seed     uint64
	Trace    bool
	Warmup   time.Duration
	Measure  time.Duration

	// Cold starts behind setup_s: at least MinSetups, and more while
	// they fit in SetupBudget, so a millisecond warm start is a median
	// of many and a second-long cold build a median of three.
	MinSetups   int
	SetupBudget time.Duration

	LayerBenchtime time.Duration // per isolated timing of the traced run
	Dir            string        // for the traced run's span file and scratch files
}

func defaultRunConfig(w workloadDef, seed uint64, seconds float64, trace bool, workdir string) runConfig {
	return runConfig{
		Workload:       w,
		Seed:           seed,
		Trace:          trace,
		Warmup:         2 * time.Second,
		Measure:        time.Duration(seconds * float64(time.Second)),
		MinSetups:      3,
		SetupBudget:    2500 * time.Millisecond,
		LayerBenchtime: 50 * time.Millisecond,
		Dir:            workdir,
	}
}

// runRecord is everything one run reports. The result line the driver
// reads is a projection of it (see resultLine).
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     int       `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	Samples        int      `json:"samples"`
	TailPercentile float64  `json:"tailPercentile"` // what latency_p99_ms was read at
	Setups         int      `json:"setups"`
	CheckFailures  int      `json:"checkFailures"`
	CheckFirst     []string `json:"checkFirst,omitempty"`
	TraceFile      string   `json:"traceFile,omitempty"`
	SpansDropped   int64    `json:"spansDropped,omitempty"`

	Fixture fingerprint `json:"fixture"`
	Env     envInfo     `json:"env"`
}

// runWorkload measures one workload in this process.
func runWorkload(cfg runConfig, fx *fixture) (*runRecord, error) {
	rec := &runRecord{
		Workload: cfg.Workload.Name,
		Seed:     cfg.Seed,
		Seconds:  cfg.Measure.Seconds(),
		Metrics:  make(metricSet),
		Fixture:  fx.fingerprint,
		Env:      currentEnv(),
	}
	rec.Env.Clients = numClients
	if cfg.Workload.Family == "" {
		rec.Env.Clients = 1 // Refresh serializes its callers
	}
	tmp, err := os.MkdirTemp(cfg.Dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var c checker
	switch {
	case cfg.Workload.Family == "" && !cfg.Trace:
		err = runRefresh(cfg, fx, rec, &c, tmp)
	case cfg.Workload.Family == "":
		err = runRefreshTraced(cfg, fx, rec, &c, tmp)
	case !cfg.Trace:
		err = runServing(cfg, fx, rec, &c)
	default:
		err = runServingTraced(cfg, fx, rec, &c, tmp)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload.Name, err)
	}
	if cfg.Trace {
		rec.Trace = 1
	}
	rec.Metrics.set("failed_ratio", float64(rec.Failed)/float64(max(rec.Attempted, 1)))
	rec.CheckFailures, rec.CheckFirst = c.count, c.first
	rec.Correct = c.count == 0 && rec.Failed == 0
	rec.Env.finish()
	return rec, nil
}

// coldStarts starts the workload's system repeatedly, keeps the last
// instance running and returns the median start time. Each start begins
// from a collected heap given back to the operating system, as a fresh
// process would: the previous instance's garbage neither speeds the next
// start up nor stacks on top of it in VmHWM, which after the last start
// is the highest any one start reached and repeats within a percent.
func coldStarts[T any](cfg runConfig, start func() (T, error), stop func(T) error) (kept T, medianSeconds float64, count int, err error) {
	var times []float64
	began := time.Now()
	for {
		debug.FreeOSMemory()
		t0 := time.Now()
		inst, err := start()
		if err != nil {
			return kept, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= cfg.MinSetups && (time.Since(began) >= cfg.SetupBudget || len(times) >= 25) {
			return inst, median(times), len(times), nil
		}
		if err := stop(inst); err != nil {
			return kept, 0, 0, err
		}
	}
}

func newClients(cfg runConfig, fx *fixture, base string, tr *tracer) []*client {
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i, newStream(cfg.Seed, cfg.Workload.Family, i, fx.N), base, tr)
	}
	return clients
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// setLatency files a timed phase's end-to-end figures: throughput and
// latencies of its quiet quarter, operations counted over all of it.
func setLatency(rec *runRecord, p phase) {
	seconds, lat := pool(quiet(p.Slices))
	sum := summarize(lat)
	rec.Samples, rec.TailPercentile = sum.Samples, sum.TailP
	rec.Attempted, rec.Failed = rec.Attempted+p.OK+p.Failed, rec.Failed+p.Failed
	rec.Metrics.set("throughput_qps", float64(sum.Samples)/seconds)
	rec.Metrics.set("latency_p50_ms", sum.P50)
	rec.Metrics.set("latency_p99_ms", sum.Tail)
}

// setTail files the tail latency of an untraced phase's quiet quarter on
// a traced run, where it is one of the ledger's metrics.
func setTail(rec *runRecord, p phase) {
	_, lat := pool(quiet(p.Slices))
	rec.Metrics.set("latency_p99_ms", summarize(lat).Tail)
}

// runServing is the untraced pass of a serving workload: cold starts,
// warm-up, one timed closed-loop phase, then the output checks and the
// accuracy probe against the still-running target.
func runServing(cfg runConfig, fx *fixture, rec *runRecord, c *checker) (err error) {
	t, setup, setups, err := coldStarts(cfg,
		func() (*target, error) { return startTarget(cfg.Workload, fx, nil) },
		(*target).stop)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, t.stop()) }()
	rec.Setups = setups
	rec.Metrics.set("setup_s", setup)

	clients := newClients(cfg, fx, t.base, nil)
	defer closeClients(clients)
	startsPeak := peakRSSMB()
	debug.FreeOSMemory()
	drive(clients, cfg.Warmup, false)
	var p phase
	rec.Metrics.set("rss_peak_mb", max(startsPeak, secondsPeakMB(func() { p = drive(clients, cfg.Measure, true) })))
	setLatency(rec, p)
	rec.Metrics.set("refresh_net_mb", float64(fx.NetBytes)/1e6)

	if err := checkServed(c, t, fx, clients[0].kept); err != nil {
		return err
	}
	accuracy, err := servedAccuracy(cfg.Workload, t, fx)
	if err != nil {
		return err
	}
	rec.Metrics.set("accuracy_mass100", accuracy)
	return nil
}

// runServingTraced is the separate traced pass: an untraced reference
// and the same requests against a target with the span recorders
// spliced in, then the isolated layer timings. No end-to-end metric is
// ever taken from here.
func runServingTraced(cfg runConfig, fx *fixture, rec *runRecord, c *checker, tmp string) error {
	tr := newTracer(spanCapacity)
	ph, err := tracedPhases(cfg, fx, tr, c)
	if err != nil {
		return err
	}
	untraced, traced := ph.untraced, ph.traced
	rec.Attempted = untraced.OK + untraced.Failed + traced.OK + traced.Failed
	rec.Failed = untraced.Failed + traced.Failed
	rec.Metrics.set("refresh_s", 0)
	setTail(rec, untraced)
	liveCounts(rec.Metrics, ph.before, ph.after, traced)
	tr.selfTimes(rec.Metrics)
	sum := summarize(traced.Lat)
	rec.Samples, rec.TailPercentile = sum.Samples, sum.TailP
	rec.Metrics.set("serve.http_overhead_us", sum.P50*1e3-handlerMedianUS(tr))
	rec.Metrics.set("bench.trace_overhead_ratio", traced.qps()/untraced.qps())
	rec.SpansDropped = tr.dropped.Load()
	rec.TraceFile = filepath.Join(cfg.Dir, "trace_"+cfg.Workload.Name+".jsonl")
	if err := tr.writeJSONL(rec.TraceFile); err != nil {
		return err
	}
	return layerTimings(rec.Metrics, fx, cfg.LayerBenchtime, tmp)
}

// tracedResult is what the traced pass's timed phases measured, with
// the traced target's counters before and after.
type tracedResult struct {
	untraced, traced phase
	before, after    map[string]float64
}

// tracedPhases runs a plain target and one with tr's span recorders
// side by side, each with its own clients and request streams started
// afresh, and drives them in turn: plain, traced, traced, plain. Both
// sides see the same heap (the collector paces itself by it, so span
// memory present on one side only would make that side read as faster)
// and any drift of the box over the run cancels. Both targets are
// stopped on return, which waits for every handler, so no span is still
// being written when the caller reads them.
func tracedPhases(cfg runConfig, fx *fixture, tr *tracer, c *checker) (res tracedResult, err error) {
	type side struct {
		tr      *tracer
		total   *phase
		t       *target
		clients []*client
	}
	sides := [2]*side{{tr: nil, total: &res.untraced}, {tr: tr, total: &res.traced}}
	for _, s := range sides {
		if s.t, err = startTarget(cfg.Workload, fx, s.tr); err != nil {
			return res, err
		}
		defer func() { err = errors.Join(err, s.t.stop()) }()
		s.clients = newClients(cfg, fx, s.t.base, s.tr)
		defer closeClients(s.clients)
		drive(s.clients, cfg.Warmup/2, false)
	}
	traced := sides[1]
	if res.before, err = traced.t.counters(); err != nil {
		return res, err
	}
	for _, i := range [...]int{0, 1, 1, 0} {
		s := sides[i]
		tr.record(s.tr != nil)
		s.total.add(drive(s.clients, cfg.Measure*35/200, true))
		tr.record(false)
	}
	if res.after, err = traced.t.counters(); err != nil {
		return res, err
	}
	return res, checkServed(c, traced.t, fx, traced.clients[0].kept)
}

// spanCapacity is the traced phase's preallocated span memory (32 MB):
// several times what the reference box records in a phase. Spans beyond
// it are dropped and counted.
const spanCapacity = 1 << 20

// handlerMedianUS is the median handler span of the traced phase.
func handlerMedianUS(tr *tracer) float64 {
	var durs []float64
	for _, s := range tr.recorded() {
		if s.Kind == spanServeHandler || s.Kind == spanRouterHandler {
			durs = append(durs, float64(s.End-s.Start)/1e3)
		}
	}
	return median(durs)
}

// refreshLoop is the refresh workload's system: a Refresher over an
// empty store, persisting every publish, as prserve runs it.
type refreshLoop struct {
	g         *graph.Graph
	refresher *serve.Refresher
	published []*serve.Snapshot // in generation order
}

func startRefreshLoop(fx *fixture, dir string) (*refreshLoop, error) {
	g, err := gstore.Open(fx.GraphPath, gstore.OpenOptions{})
	if err != nil {
		return nil, err
	}
	l := &refreshLoop{g: g}
	l.refresher = serve.NewRefresher(serve.NewStore(), serve.EngineBuilder(g, buildConfig()), 0)
	l.refresher.PersistTo(dir, nil)
	if err := l.refresh(); err != nil {
		return nil, errors.Join(err, g.Close())
	}
	return l, nil
}

func (l *refreshLoop) refresh() error {
	snap, err := l.refresher.Refresh()
	if err == nil {
		l.published = append(l.published, snap)
	}
	return err
}

// run refreshes back to back for d and returns the phase. Every
// refresh is a slice of its own.
func (l *refreshLoop) run(d time.Duration) phase {
	var p phase
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		if l.refresh() == nil {
			took := time.Since(t0)
			p.OK++
			p.Lat = append(p.Lat, int64(took))
			p.Slices = append(p.Slices, slice{took.Seconds(), []int64{int64(took)}})
		} else {
			p.Failed++
		}
	}
	p.Seconds = time.Since(start).Seconds()
	return p
}

func (l *refreshLoop) stop() error { return l.g.Close() }

// checkedGenerations is how many of the first published generations the
// refresh workload verifies and scores.
const checkedGenerations = 8

func runRefresh(cfg runConfig, fx *fixture, rec *runRecord, c *checker, tmp string) (err error) {
	l, setup, setups, err := coldStarts(cfg,
		func() (*refreshLoop, error) { return startRefreshLoop(fx, tmp) },
		(*refreshLoop).stop)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, l.stop()) }()
	rec.Setups = setups
	rec.Metrics.set("setup_s", setup)

	startsPeak := peakRSSMB()
	debug.FreeOSMemory()
	l.run(cfg.Warmup)
	var p phase
	rec.Metrics.set("rss_peak_mb", max(startsPeak, secondsPeakMB(func() { p = l.run(cfg.Measure) })))
	setLatency(rec, p)
	rec.Metrics.set("refresh_s", rec.Metrics["latency_p50_ms"].Value/1e3)
	if l.refresher.PersistErrors() > 0 {
		c.failf("%d snapshot saves failed", l.refresher.PersistErrors())
	}

	accuracy, net, err := checkRefreshes(c, l.g, fx, l.published[:min(checkedGenerations, len(l.published))])
	if err != nil {
		return err
	}
	rec.Metrics.set("accuracy_mass100", accuracy)
	rec.Metrics.set("refresh_net_mb", net/1e6)
	return nil
}

// runRefreshTraced is the refresh workload's ledger pass. The loop has
// no sockets to put spans on, so the live-span and counter metrics read
// zero and the isolated engine timings carry the attribution.
func runRefreshTraced(cfg runConfig, fx *fixture, rec *runRecord, c *checker, tmp string) error {
	l, err := startRefreshLoop(fx, tmp)
	if err != nil {
		return err
	}
	l.run(cfg.Warmup / 2)
	p := l.run(cfg.Measure * 70 / 100)
	_, _, err = checkRefreshes(c, l.g, fx, l.published[:min(2, len(l.published))])
	if err = errors.Join(err, l.stop()); err != nil {
		return err
	}
	sum := summarize(p.Lat)
	rec.Samples, rec.TailPercentile = sum.Samples, sum.TailP
	rec.Attempted, rec.Failed = p.OK+p.Failed, p.Failed
	rec.Metrics.set("refresh_s", sum.P50/1e3)
	setTail(rec, p)
	liveCounts(rec.Metrics, nil, nil, p)
	newTracer(0).selfTimes(rec.Metrics)
	rec.Metrics.set("serve.http_overhead_us", 0)
	rec.Metrics.set("bench.trace_overhead_ratio", 0)
	return layerTimings(rec.Metrics, fx, cfg.LayerBenchtime, tmp)
}
