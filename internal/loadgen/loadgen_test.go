package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph/gen"
	"repro/internal/rng"
	"repro/internal/serve"
)

// fakeTarget answers every op with a latency that is a pure function
// of the op itself, so end-to-end runs are fully deterministic and the
// worker-count equivalence of histogram buckets can be asserted
// bit-for-bit.
type fakeTarget struct {
	// fail, when set, marks ops with fail(op) true as HTTP 500.
	fail func(Op) bool
}

func (t fakeTarget) Do(_ context.Context, op Op) Result {
	if t.fail != nil && t.fail(op) {
		return Result{Status: http.StatusInternalServerError, Latency: time.Millisecond}
	}
	// Derive a deterministic latency from the op's identity.
	r := rng.Derive(99, uint64(op.Index), uint64(op.K), uint64(op.Vertex))
	return Result{
		Status:  http.StatusOK,
		Latency: time.Duration(50_000 + r.Uint64n(5_000_000)), // 50µs..5ms
	}
}

func testConfig() Config {
	return Config{
		Seed:        42,
		Queries:     600,
		Warmup:      100,
		Concurrency: 4,
		Vertices:    5000,
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a, err := Schedule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed + config produced different schedules")
	}
	c, err := Schedule(Config{Seed: 43, Queries: 600, Warmup: 100, Vertices: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a) != 700 {
		t.Fatalf("schedule length %d, want warmup+queries = 700", len(a))
	}
	for i, op := range a {
		if op.Index != i {
			t.Fatalf("op %d has Index %d", i, op.Index)
		}
		if op.Warmup != (i < 100) {
			t.Fatalf("op %d warmup flag wrong", i)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	cfg := testConfig()
	cfg.Queries = 10000
	cfg.Warmup = 0
	ops, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var counts [4]int
	kOnes := 0
	for _, op := range ops {
		counts[endpointSlot(op.Endpoint)]++
		switch op.Endpoint {
		case EndpointTopK:
			if op.K < 1 || op.K > 100 {
				t.Fatalf("k=%d outside [1,100]", op.K)
			}
			if op.K == 1 {
				kOnes++
			}
		case EndpointRank:
			if int(op.Vertex) >= cfg.Vertices {
				t.Fatalf("vertex %d outside id space", op.Vertex)
			}
		}
	}
	// Default mix 60/30/10 within generous tolerance.
	if counts[0] < 5500 || counts[0] > 6500 {
		t.Errorf("topk count %d far from 6000", counts[0])
	}
	if counts[1] < 2500 || counts[1] > 3500 {
		t.Errorf("rank count %d far from 3000", counts[1])
	}
	if counts[2] != 0 {
		t.Errorf("ppr count %d; default mix must not schedule ppr", counts[2])
	}
	if counts[3] < 700 || counts[3] > 1300 {
		t.Errorf("stats count %d far from 1000", counts[3])
	}
	// Zipf skew: k=1 must dominate the topk draw (≈1/H weight, far
	// above uniform 1%).
	if kOnes*10 < counts[0] {
		t.Errorf("k=1 drawn %d/%d times; Zipf skew missing", kOnes, counts[0])
	}
}

func TestScheduleOpenLoopArrivals(t *testing.T) {
	cfg := testConfig()
	cfg.OpenLoop = true
	cfg.Rate = 5000
	ops, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for _, op := range ops {
		if op.Warmup {
			if op.Arrival != 0 {
				t.Fatal("warmup op has an arrival offset")
			}
			continue
		}
		if op.Arrival <= prev {
			t.Fatalf("arrivals not strictly increasing at op %d", op.Index)
		}
		prev = op.Arrival
	}
	// Mean inter-arrival should be near 1/rate: 600 measured queries
	// at 5000/s span ≈120ms.
	if prev < 60*time.Millisecond || prev > 240*time.Millisecond {
		t.Errorf("total span %v far from expected 120ms", prev)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                            // no queries
		{Queries: 10, Warmup: -1},     // negative warmup
		{Queries: 10, OpenLoop: true}, // open loop without rate
		{Queries: 10, ZipfS: -2, Vertices: 10},
		{Queries: 10}, // rank traffic without Vertices
		{Queries: 10, Mix: Mix{TopK: -1, Rank: 1}},             // negative weight
		{Queries: 10, Mix: Mix{TopK: 1, Rank: 1}, Vertices: 0}, // rank without id space
	}
	for i, cfg := range bad {
		if _, err := Schedule(cfg); err == nil {
			t.Errorf("config %d unexpectedly valid: %+v", i, cfg)
		}
		if _, err := Run(context.Background(), cfg, fakeTarget{}); err == nil {
			t.Errorf("Run accepted invalid config %d", i)
		}
	}
	// Stats-only mix needs no vertex space.
	if _, err := Schedule(Config{Queries: 10, Mix: Mix{Stats: 1}}); err != nil {
		t.Errorf("stats-only mix rejected: %v", err)
	}
}

// TestRunWorkerCountEquivalence is the satellite contract (mirroring
// the repo's workers 1/2/4/7 convention): with a deterministic target,
// the per-endpoint counts, error counts and histogram buckets are
// bit-identical for every worker count and for repeated runs.
func TestRunWorkerCountEquivalence(t *testing.T) {
	base := testConfig()
	run := func(conc, ramp int) *Report {
		cfg := base
		cfg.Concurrency = conc
		cfg.RampStages = ramp
		rep, err := Run(context.Background(), cfg, fakeTarget{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ref := run(1, 1)
	refTotal := ref.Total()
	if refTotal.Count != uint64(base.Queries) {
		t.Fatalf("measured %d queries, want %d", refTotal.Count, base.Queries)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		for _, ramp := range []int{1, 3} {
			got := run(workers, ramp)
			for _, ep := range Endpoints {
				a, b := ref.PerEndpoint[ep], got.PerEndpoint[ep]
				if (a == nil) != (b == nil) {
					t.Fatalf("workers=%d ramp=%d: endpoint %s presence differs", workers, ramp, ep)
				}
				if a == nil {
					continue
				}
				if a.Count != b.Count || a.Errors != b.Errors {
					t.Errorf("workers=%d ramp=%d %s: counts %d/%d vs %d/%d",
						workers, ramp, ep, a.Count, a.Errors, b.Count, b.Errors)
				}
				if !reflect.DeepEqual(a.Hist.Counts(), b.Hist.Counts()) {
					t.Errorf("workers=%d ramp=%d %s: histogram buckets diverge", workers, ramp, ep)
				}
				if a.Hist.Sum() != b.Hist.Sum() {
					t.Errorf("workers=%d ramp=%d %s: histogram sums diverge", workers, ramp, ep)
				}
			}
		}
	}
}

func TestErrorsCountedNotRecorded(t *testing.T) {
	cfg := testConfig()
	cfg.Warmup = 0
	rep, err := Run(context.Background(), cfg, fakeTarget{
		fail: func(op Op) bool { return op.Endpoint == EndpointRank },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rep.PerEndpoint[EndpointRank]
	if st == nil || st.Errors != st.Count || st.Errors == 0 {
		t.Fatalf("rank errors not counted: %+v", st)
	}
	if st.Hist.Count() != 0 {
		t.Errorf("failed queries leaked %d samples into the histogram", st.Hist.Count())
	}
	if ok := rep.PerEndpoint[EndpointTopK]; ok == nil || ok.Errors != 0 || ok.Hist.Count() != uint64(ok.Count) {
		t.Errorf("topk stats wrong: %+v", ok)
	}
}

func TestRunOpenLoop(t *testing.T) {
	cfg := Config{
		Seed: 7, Queries: 200, Warmup: 20, Concurrency: 4,
		OpenLoop: true, Rate: 20000, Vertices: 1000,
	}
	rep, err := Run(context.Background(), cfg, fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Total()
	if total.Count != 200 {
		t.Fatalf("open loop measured %d queries, want 200", total.Count)
	}
	if total.Errors != 0 {
		t.Fatalf("open loop errors: %d", total.Errors)
	}
	if rep.QueriesPerSecond() <= 0 {
		t.Error("no throughput reported")
	}
	// The schedule spans ≈10ms at 20k/s; wall time must at least cover it.
	if rep.Wall <= 0 {
		t.Error("no wall time")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig(), fakeTarget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
}

// TestRunAgainstServeHandler drives a real serve.Server over a loopback
// socket on a small power-law graph: every query must succeed, which
// pins the op→URL rendering against the actual API (bad k or vertex
// ranges would surface as 4xx errors here).
func TestRunAgainstServeHandler(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := serve.NewService(g, serve.ServiceConfig{
		Build: serve.BuildConfig{Engine: serve.EngineFrogWild, Machines: 4, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cfg := Config{
		Seed: 11, Queries: 400, Warmup: 50, Concurrency: 4,
		Vertices: g.NumVertices(), MaxK: 50,
	}
	rep, err := Run(context.Background(), cfg, NewHTTPTarget(ts.URL, cfg.Concurrency))
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Total()
	if total.Count != 400 {
		t.Fatalf("measured %d queries, want 400", total.Count)
	}
	if total.Errors != 0 {
		t.Fatalf("%d queries failed against the live handler", total.Errors)
	}
	if total.Hist.Count() != 400 || total.Hist.Max() <= 0 {
		t.Fatalf("latency histogram empty: %s", total.Hist.String())
	}
	// The server saw warmup+measured queries in total.
	if srv.Queries() != 450 {
		t.Errorf("server counted %d queries, want 450", srv.Queries())
	}
	doc := rep.BenchDoc("prload", map[string]string{"target": ts.URL})
	if len(doc.Benchmarks) < 2 || doc.Benchmarks[0].Name != "prload/all" {
		t.Fatalf("bench doc shape wrong: %+v", doc.Benchmarks)
	}
	if doc.Benchmarks[0].Metrics["queries/s"] <= 0 {
		t.Error("bench doc missing throughput")
	}
	if doc.Env["target"] != ts.URL {
		t.Error("bench doc env not merged")
	}

	// The prload report schema, as `prload -out` marshalled it before
	// the structs moved into this package: the exact key sets of the
	// document, of an entry, and of an endpoint entry's metrics.
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(top)), []string{"benchmarks", "env", "failed"}; !slices.Equal(got, want) {
		t.Errorf("document keys %v, want %v", got, want)
	}
	var entries []map[string]json.RawMessage
	if err := json.Unmarshal(top["benchmarks"], &entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if got, want := slices.Sorted(maps.Keys(e)), []string{"iterations", "metrics", "name"}; !slices.Equal(got, want) {
			t.Errorf("entry keys %v, want %v", got, want)
		}
		var metrics map[string]float64
		if err := json.Unmarshal(e["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := []string{"errors", "max/ms", "p50/ms", "p90/ms", "p95/ms", "p99/ms", "queries/s"}
		if got := slices.Sorted(maps.Keys(metrics)); !slices.Equal(got, want) {
			t.Errorf("metric names %v, want %v", got, want)
		}
	}
}

// TestRunAgainstServeHandler404 pins the error-path accounting against
// the real handler: vertex ids outside the graph must come back as
// errors, not histogram samples.
func TestRunAgainstServeHandler404(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := serve.NewService(g, serve.ServiceConfig{
		Build: serve.BuildConfig{Engine: serve.EngineExact, Machines: 2, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cfg := Config{
		Seed: 5, Queries: 200, Concurrency: 2,
		Mix:      Mix{Rank: 1},
		Vertices: g.NumVertices() * 10, // most ids miss
	}
	rep, err := Run(context.Background(), cfg, NewHTTPTarget(ts.URL, cfg.Concurrency))
	if err != nil {
		t.Fatal(err)
	}
	st := rep.PerEndpoint[EndpointRank]
	if st == nil || st.Errors == 0 {
		t.Fatalf("out-of-range vertices produced no errors: %+v", st)
	}
	if st.Hist.Count() != uint64(st.Count-st.Errors) {
		t.Errorf("histogram count %d != successes %d", st.Hist.Count(), st.Count-st.Errors)
	}
}

func TestHTTPTargetBadURL(t *testing.T) {
	res := NewHTTPTarget("http://127.0.0.1:0", 1).Do(context.Background(), Op{Endpoint: EndpointStats})
	if res.Err == nil {
		t.Fatal("dial to port 0 succeeded?")
	}
}

// TestHTTPTargetReusesConnections: a run opens no more connections than
// it has requests in flight, however its requests are spaced. The gaps
// matter: a worker that finds the transport's idle pool full on its way
// back closes its connection and dials again for the next request, and
// http.DefaultTransport keeps two per host.
func TestHTTPTargetReusesConnections(t *testing.T) {
	const conc = 8
	for _, cfg := range []Config{
		{Seed: 3, Queries: 400, Warmup: 40, Concurrency: conc, Mix: Mix{Stats: 1}},
		{Seed: 3, Queries: 400, Concurrency: conc, Mix: Mix{Stats: 1}, OpenLoop: true, Rate: 4000},
	} {
		var opened atomic.Int64
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(200 * time.Microsecond) // requests overlap and return at scattered times
			w.Write([]byte("{}"))
		}))
		ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				opened.Add(1)
			}
		}
		ts.Start()
		rep, err := Run(context.Background(), cfg, NewHTTPTarget(ts.URL, conc))
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if total := rep.Total(); total.Count != 400 || total.Errors != 0 {
			t.Fatalf("open=%v: %d queries, %d errors", cfg.OpenLoop, total.Count, total.Errors)
		}
		if n := opened.Load(); n > conc {
			t.Errorf("open=%v: %d connections opened for %d requests in flight at most", cfg.OpenLoop, n, conc)
		}
	}
}

// TestSchedulePPRMix checks the ppr endpoint weight: ppr ops are drawn
// at roughly the configured share with Zipf-skewed sources and bounded
// k, and — the compatibility pin — a mix with PPR = 0 reproduces the
// pre-ppr schedule bit-for-bit (the draw sits between rank and the
// stats default, so old baselines stay comparable).
func TestSchedulePPRMix(t *testing.T) {
	cfg := testConfig()
	cfg.Queries = 10000
	cfg.Warmup = 0
	cfg.Mix = Mix{TopK: 0.45, Rank: 0.25, PPR: 0.2, Stats: 0.1}
	ops, err := Schedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pprs := 0
	sourceOnes := 0
	for _, op := range ops {
		if op.Endpoint != EndpointPPR {
			continue
		}
		pprs++
		if int(op.Vertex) >= cfg.Vertices {
			t.Fatalf("ppr source %d outside id space", op.Vertex)
		}
		if op.K < 1 || op.K > cfg.MaxK && cfg.MaxK > 0 {
			t.Fatalf("ppr k=%d out of range", op.K)
		}
		if op.Vertex == 0 {
			sourceOnes++
		}
		if want := fmt.Sprintf("/v1/ppr?source=%d&k=%d", op.Vertex, op.K); op.URL() != want {
			t.Fatalf("ppr URL %q, want %q", op.URL(), want)
		}
	}
	if pprs < 1500 || pprs > 2500 {
		t.Errorf("ppr count %d far from 2000", pprs)
	}
	// Zipf skew: the hottest source must dominate, far above uniform.
	if sourceOnes*20 < pprs {
		t.Errorf("source 0 drawn %d/%d times; Zipf skew missing", sourceOnes, pprs)
	}

	// Compatibility: explicit weights matching the default mix with
	// PPR = 0 produce the identical schedule.
	legacy := testConfig()
	legacy.Queries = 10000
	legacy.Warmup = 0
	a, err := Schedule(legacy)
	if err != nil {
		t.Fatal(err)
	}
	withZero := legacy
	withZero.Mix = Mix{TopK: 0.6, Rank: 0.3, PPR: 0, Stats: 0.1}
	b, err := Schedule(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PPR=0 mix perturbed the schedule; pre-ppr baselines broken")
	}
}
