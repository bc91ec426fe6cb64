package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

// runCLI invokes the CLI body and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// tinyRun are CLI args for a fast run against the server at url.
func tinyRun(url string, extra ...string) []string {
	return append([]string{
		"-url", url, "-queries", "300", "-warmup", "50", "-concurrency", "4", "-seed", "7",
	}, extra...)
}

const (
	tinyN    = 1000
	tinySeed = 7
)

var tinyBuild = serve.BuildConfig{Machines: 2, Seed: tinySeed}

func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.TwitterLike(tinyN, tinySeed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// singleNode is what prserve serves from a graph.
func singleNode(t *testing.T) http.Handler {
	t.Helper()
	srv, _, err := serve.NewService(tinyGraph(t), serve.ServiceConfig{Build: tinyBuild})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// routed is what prserve -shards serves: the merge router over three
// shard workers, here on in-memory pipes.
func routed(t *testing.T) http.Handler {
	t.Helper()
	g := tinyGraph(t)
	snap, err := serve.Build(g, tinyBuild)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore()
	store.Publish(snap)
	const shards = 3
	clients := make([]*router.ShardClient, shards)
	for i := range clients {
		srv := router.NewShardServer(i, shards, router.Stride(g.NumVertices(), shards, i), store)
		clients[i] = router.NewShardClient(i, fmt.Sprintf("pipe-%d", i), router.PipeDialer(srv), time.Second)
	}
	return router.New(clients, router.Options{})
}

// recorder notes every /v1 request in front of a handler, so a test
// can say what prload sent.
type recorder struct {
	http.Handler
	mu   sync.Mutex
	urls []string
}

func (r *recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if strings.HasPrefix(req.URL.Path, "/v1/") {
		r.mu.Lock()
		r.urls = append(r.urls, req.URL.RequestURI())
		r.mu.Unlock()
	}
	r.Handler.ServeHTTP(w, req)
}

// sent returns what has been recorded so far and starts over.
func (r *recorder) sent() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	urls := r.urls
	r.urls = nil
	return urls
}

// listen serves h on a loopback port until the test ends.
func listen(t *testing.T, h http.Handler) (*recorder, string) {
	t.Helper()
	rec := &recorder{Handler: h}
	ts := httptest.NewServer(rec)
	t.Cleanup(ts.Close)
	return rec, ts.URL
}

// report parses a prload report into (document, entry by name).
func report(t *testing.T, data string) (loadgen.BenchDoc, map[string]loadgen.BenchEntry) {
	t.Helper()
	var doc loadgen.BenchDoc
	if err := json.Unmarshal([]byte(data), &doc); err != nil {
		t.Fatalf("not a JSON report: %v\n%s", err, data)
	}
	entries := map[string]loadgen.BenchEntry{}
	for _, b := range doc.Benchmarks {
		entries[b.Name] = b
	}
	return doc, entries
}

// TestRunEndToEnd drives the two servers prload has — a single node and
// a router over three shards — over a socket: a clean exit, a report
// with latency entries and the server's counters for exactly this run,
// and the schedule of the parent commit's prload for the same seed and
// flags, with the vertex id space read from the server, not passed.
func TestRunEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name       string
		handler    func(*testing.T) http.Handler
		mix        string
		iterations map[string]int64 // `prload -gen twitterlike -n 1000 -machines 2 -queries 300 -warmup 50 -seed 7 [-mix …]` at PR 22
		network    bool
	}{
		{"single", singleNode, "topk=0.4,rank=0.3,ppr=0.2,stats=0.1",
			map[string]int64{"prload/all": 300, "prload/topk": 121, "prload/rank": 91, "prload/ppr": 62, "prload/stats": 26}, false},
		// The router refuses ppr (501), so it gets the default mix.
		{"router", routed, "",
			map[string]int64{"prload/all": 300, "prload/topk": 185, "prload/rank": 89, "prload/stats": 26}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, url := listen(t, tc.handler(t))
			if n, err := vertices(context.Background(), url); err != nil || n != tinyN {
				t.Fatalf("vertices = %d, %v; want the graph's %d", n, err, tinyN)
			}
			rec.sent()

			args := tinyRun(url)
			if tc.mix != "" {
				args = append(args, "-mix", tc.mix)
			}
			code, stdout, stderr := runCLI(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, "queries/s") {
				t.Errorf("no throughput summary on stderr:\n%s", stderr)
			}
			doc, entries := report(t, stdout)
			if doc.Env["target"] != url || doc.Env["seed"] != "7" {
				t.Errorf("env = %v", doc.Env)
			}
			for name, want := range tc.iterations {
				e, ok := entries[name]
				if !ok || e.Iterations != want {
					t.Errorf("%s: %d iterations (present %v), want the parent's %d", name, e.Iterations, ok, want)
					continue
				}
				for _, metric := range []string{"queries/s", "p50/ms", "p95/ms", "p99/ms"} {
					if _, ok := e.Metrics[metric]; !ok {
						t.Errorf("%s missing metric %s", name, metric)
					}
				}
				if e.Metrics["errors"] != 0 {
					t.Errorf("%s had %v errors", name, e.Metrics["errors"])
				}
			}

			// What went over the wire is the stats preflight and then the
			// schedule for (seed, flags, n): ids drawn over the whole graph.
			fs, o := newFlags(io.Discard)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			cfg := o.load
			cfg.Vertices = tinyN
			if tc.mix != "" {
				cfg.Mix, _ = parseMix(tc.mix)
			}
			ops, err := loadgen.Schedule(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"/v1/stats"}
			for _, op := range ops {
				want = append(want, op.URL())
			}
			got := rec.sent()
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("server saw %d requests that are not the preflight plus the %d scheduled ones", len(got), len(ops))
			}

			server, ok := entries["prload/server"]
			if !ok {
				t.Fatal("report missing prload/server entry")
			}
			if server.Metrics["requests"] != 350 {
				t.Errorf("prload/server requests = %v, want the run's 350", server.Metrics["requests"])
			}
			if r := server.Metrics["cacheHitRate"]; r < 0 || r > 1 {
				t.Errorf("prload/server cacheHitRate = %v, want within [0,1]", r)
			}
			network, ok := entries["prload/network"]
			if ok != tc.network {
				t.Fatalf("prload/network present = %v, want %v", ok, tc.network)
			}
			if tc.network && (network.Metrics["bytesPerQuery"] <= 0 || network.Metrics["bytesSent"] <= 0 || network.Metrics["bytesRecv"] <= 0) {
				t.Errorf("wire traffic not measured: %v", network.Metrics)
			}
		})
	}
}

// TestRunWritesOutFile checks -out writes the same report to disk.
func TestRunWritesOutFile(t *testing.T) {
	_, url := listen(t, singleNode(t))
	out := filepath.Join(t.TempDir(), "load.json")
	code, stdout, stderr := runCLI(t, tinyRun(url, "-out", out)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("-out still wrote to stdout:\n%s", stdout)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if doc, _ := report(t, string(data)); len(doc.Benchmarks) == 0 {
		t.Error("out file has no benchmarks")
	}
}

// TestRunDeterministicSchedule runs the CLI twice with the same seed
// against one server: the per-endpoint iteration counts must match
// exactly (latencies are wall-clock and may differ; the schedule must
// not), and prload/server counts each run's own requests, not the
// server's lifetime.
func TestRunDeterministicSchedule(t *testing.T) {
	_, url := listen(t, singleNode(t))
	entries := func() map[string]loadgen.BenchEntry {
		code, stdout, stderr := runCLI(t, tinyRun(url)...)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		_, entries := report(t, stdout)
		return entries
	}
	a, b := entries(), entries()
	for name, e := range a {
		if name != "prload/server" && b[name].Iterations != e.Iterations {
			t.Errorf("%s: %d vs %d queries across identical runs", name, e.Iterations, b[name].Iterations)
		}
	}
	first, second := a["prload/server"].Metrics["requests"], b["prload/server"].Metrics["requests"]
	if first < 350 || second < first-2 || second > first+2 {
		t.Errorf("prload/server requests: %v then %v; want each run's own ~350, not a running total", first, second)
	}
}

// TestRunMetricsOut checks -metrics-out writes the server's Prometheus
// exposition as the second scrape returned it, and what happens when
// the server has no /metrics to scrape.
func TestRunMetricsOut(t *testing.T) {
	_, url := listen(t, singleNode(t))
	mout := filepath.Join(t.TempDir(), "metrics.txt")
	code, stdout, stderr := runCLI(t, tinyRun(url, "-metrics-out", mout)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(mout)
	if err != nil {
		t.Fatal(err)
	}
	series, err := obs.ParseText(data)
	if err != nil {
		t.Fatalf("-metrics-out is not a parseable exposition: %v", err)
	}
	_, entries := report(t, stdout)
	// The file is the server's lifetime: this run plus its preflight.
	if got, want := obs.FamilySum(series, "serve_requests_total"), entries["prload/server"].Metrics["requests"]+1; got != want {
		t.Errorf("serve_requests_total = %v in -metrics-out, want the report's requests + the preflight = %v", got, want)
	}

	// A server that mounts no /metrics still gets its latency report.
	bare := singleNode(t)
	rec, url := listen(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			http.NotFound(w, r)
			return
		}
		bare.ServeHTTP(w, r)
	}))
	code, stdout, stderr = runCLI(t, tinyRun(url)...)
	if code != 0 || !strings.Contains(stderr, "/metrics answered 404") {
		t.Fatalf("no /metrics: exit %d, want 0 with a note; stderr:\n%s", code, stderr)
	}
	if _, entries := report(t, stdout); entries["prload/all"].Iterations != 300 || entries["prload/server"].Name != "" {
		t.Errorf("no /metrics: want latency entries and no prload/server, got %v", entries)
	}
	// With nothing to write, -metrics-out fails before any query is sent.
	rec.sent()
	if code, _, _ := runCLI(t, tinyRun(url, "-metrics-out", mout)...); code != 1 {
		t.Errorf("-metrics-out with no /metrics: exit %d, want 1", code)
	}
	if sent := rec.sent(); !slices.Equal(sent, []string{"/v1/stats"}) {
		t.Errorf("-metrics-out with no /metrics sent %v, want the preflight alone", sent)
	}
}

func TestRunUsageErrors(t *testing.T) {
	rec, url := listen(t, singleNode(t))
	for _, args := range [][]string{
		{"-bogus"},
		{"-queries", "10"}, // no -url
		tinyRun(url, "-mix", "frobnicate=1"),
		tinyRun(url, "-open"), // open loop without -rate
		// Flags that told prload what the server publishes, or built a
		// server inside it, are gone.
		tinyRun(url, "-vertices", "1000"),
		tinyRun(url, "-metrics-url", url+"/metrics"),
		tinyRun(url, "-gen", "twitterlike"),
		tinyRun(url, "-shards", "3"),
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
	}
	if sent := rec.sent(); len(sent) != 0 {
		t.Errorf("usage errors sent %v, want nothing", sent)
	}
}

// TestRunPreflightFails: a server that cannot answer /v1/stats fails
// the run with its own words before a single query is sent.
func TestRunPreflightFails(t *testing.T) {
	// No snapshot published: every /v1 endpoint answers 503 no_snapshot.
	rec, url := listen(t, serve.NewServer(serve.NewStore(), serve.ServerOptions{}))
	code, stdout, stderr := runCLI(t, tinyRun(url)...)
	if code != 1 || !strings.Contains(stderr, "status 503") || !strings.Contains(stderr, `"code":"no_snapshot"`) {
		t.Fatalf("exit %d, want 1 with the server's 503 envelope; stderr:\n%s", code, stderr)
	}
	if sent := rec.sent(); stdout != "" || !slices.Equal(sent, []string{"/v1/stats"}) {
		t.Errorf("sent %v and wrote %q, want the preflight alone and no report", sent, stdout)
	}
	// Nothing listening at all is a run failure too, not a usage error.
	if code, _, _ := runCLI(t, tinyRun("http://127.0.0.1:1")...); code != 1 {
		t.Errorf("unreachable server: exit %d, want 1", code)
	}
}

func TestParseMix(t *testing.T) {
	m, err := parseMix("topk=0.6, rank=0.3,stats=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if m.TopK != 0.6 || m.Rank != 0.3 || m.Stats != 0.1 {
		t.Errorf("parsed %+v", m)
	}
	if m, err = parseMix("topk=1"); err != nil || m.TopK != 1 || m.Rank != 0 {
		t.Errorf("single-component mix: %+v, %v", m, err)
	}
	for _, bad := range []string{"topk", "topk=x", "frobnicate=1", ""} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestFlagSurface pins prload's flags by (name, default): the fourteen
// that describe a workload and where its report goes. Everything about
// the graph and the server is the server's to say. Help text is not
// pinned.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"concurrency", "8"},
		{"maxk", "100"},
		{"metrics-out", ""},
		{"mix", ""},
		{"open", "false"},
		{"out", "-"},
		{"queries", "4000"},
		{"ramp", "1"},
		{"rate", "0"},
		{"seed", "1"},
		{"timeout", "0s"},
		{"url", ""},
		{"warmup", "500"},
		{"zipf-s", "1.1"},
	}
	fs, _ := newFlags(io.Discard)
	var got [][2]string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, [2]string{f.Name, f.DefValue}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
