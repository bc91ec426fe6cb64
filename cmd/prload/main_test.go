package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph/gio"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// runCLI invokes the CLI body and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// tinyRun are CLI args for a fast in-process run on a small graph.
func tinyRun(extra ...string) []string {
	return append([]string{
		"-gen", "twitterlike", "-n", "1000", "-machines", "2",
		"-queries", "300", "-warmup", "50", "-concurrency", "4", "-seed", "7",
	}, extra...)
}

// TestRunEndToEnd pins the acceptance criterion: a fixed-seed run
// against an in-process server completes and prints a JSON report with
// queries/s and p50/p95/p99 per endpoint, exit code 0.
func TestRunEndToEnd(t *testing.T) {
	code, stdout, stderr := runCLI(t, tinyRun()...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var doc loadgen.BenchDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	if doc.Env["target"] != "in-process" || doc.Env["seed"] != "7" {
		t.Errorf("env = %v", doc.Env)
	}
	names := map[string]bool{}
	var server *loadgen.BenchEntry
	for i := range doc.Benchmarks {
		b := &doc.Benchmarks[i]
		names[b.Name] = true
		if b.Name == "prload/server" {
			// Server-side counter entry, not a latency entry.
			server = b
			continue
		}
		for _, metric := range []string{"queries/s", "p50/ms", "p95/ms", "p99/ms"} {
			if _, ok := b.Metrics[metric]; !ok {
				t.Errorf("%s missing metric %s", b.Name, metric)
			}
		}
		if b.Metrics["errors"] != 0 {
			t.Errorf("%s had %v errors", b.Name, b.Metrics["errors"])
		}
	}
	for _, want := range []string{"prload/all", "prload/topk", "prload/rank"} {
		if !names[want] {
			t.Errorf("report missing %s entry (have %v)", want, names)
		}
	}
	if server == nil {
		t.Fatal("report missing prload/server entry")
	}
	if server.Metrics["requests"] <= 0 {
		t.Errorf("prload/server requests = %v, want > 0", server.Metrics["requests"])
	}
	if r := server.Metrics["cacheHitRate"]; r < 0 || r > 1 {
		t.Errorf("prload/server cacheHitRate = %v, want within [0,1]", r)
	}
	if !strings.Contains(stderr, "queries/s") {
		t.Errorf("no throughput summary on stderr:\n%s", stderr)
	}
}

// TestRunWritesOutFile checks -out writes the same report to disk.
func TestRunWritesOutFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "load.json")
	code, stdout, stderr := runCLI(t, tinyRun("-out", out)...)
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
	var doc loadgen.BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("out file not JSON: %v", err)
	}
	if len(doc.Benchmarks) == 0 {
		t.Error("out file has no benchmarks")
	}
}

// TestRunDeterministicSchedule runs the CLI twice with the same seed:
// the per-endpoint iteration counts must match exactly (latencies are
// wall-clock and may differ; the schedule must not).
func TestRunDeterministicSchedule(t *testing.T) {
	counts := func() map[string]int64 {
		code, stdout, stderr := runCLI(t, tinyRun()...)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		var doc loadgen.BenchDoc
		if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, b := range doc.Benchmarks {
			got[b.Name] = b.Iterations
		}
		return got
	}
	a, b := counts(), counts()
	for name, n := range a {
		if b[name] != n {
			t.Errorf("%s: %d vs %d queries across identical runs", name, n, b[name])
		}
	}
}

// TestRunSharded drives the merge router over real TCP loopback shard
// workers and checks the report carries the measured wire traffic
// entry alongside the usual latency entries, with zero query errors.
func TestRunSharded(t *testing.T) {
	code, stdout, stderr := runCLI(t, tinyRun("-shards", "3")...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	var doc loadgen.BenchDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout)
	}
	if doc.Env["target"] != "sharded(3)" || doc.Env["shards"] != "3" {
		t.Errorf("env = %v", doc.Env)
	}
	var network *loadgen.BenchEntry
	for i := range doc.Benchmarks {
		b := &doc.Benchmarks[i]
		if b.Name == "prload/network" {
			network = b
		}
		if b.Metrics["errors"] != 0 {
			t.Errorf("%s had %v errors", b.Name, b.Metrics["errors"])
		}
	}
	if network == nil {
		t.Fatal("report missing prload/network entry")
	}
	if network.Metrics["bytesPerQuery"] <= 0 || network.Metrics["bytesSent"] <= 0 || network.Metrics["bytesRecv"] <= 0 {
		t.Errorf("wire traffic not measured: %v", network.Metrics)
	}
	if !strings.Contains(stderr, "bytes/query") {
		t.Errorf("no wire-traffic summary on stderr:\n%s", stderr)
	}
}

// TestRunMetricsOut checks -metrics-out writes the server's Prometheus
// exposition and that its counters agree with the embedded
// prload/server entry.
func TestRunMetricsOut(t *testing.T) {
	mout := filepath.Join(t.TempDir(), "metrics.txt")
	code, stdout, stderr := runCLI(t, tinyRun("-metrics-out", mout)...)
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
	var doc loadgen.BenchDoc
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatal(err)
	}
	var server *loadgen.BenchEntry
	for i := range doc.Benchmarks {
		if doc.Benchmarks[i].Name == "prload/server" {
			server = &doc.Benchmarks[i]
		}
	}
	if server == nil {
		t.Fatal("report missing prload/server entry")
	}
	if got, want := obs.FamilySum(series, "serve_requests_total"), server.Metrics["requests"]; got != want {
		t.Errorf("serve_requests_total = %v in -metrics-out, %v in report", got, want)
	}
	// A live target needs -metrics-url to have anything to write;
	// caught as a usage error before any query is issued.
	if code, _, _ := runCLI(t, "-url", "http://127.0.0.1:1", "-queries", "10",
		"-vertices", "100", "-metrics-out", mout); code != 2 {
		t.Errorf("-metrics-out with -url but no -metrics-url: exit %d, want 2", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code, _, _ := runCLI(t, "-bogus"); code != 2 {
		t.Errorf("bad flag exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, tinyRun("-mix", "frobnicate=1")...); code != 2 {
		t.Errorf("bad mix exit %d, want 2", code)
	}
	// A misspelt generator, engine or byte size is a usage error raised
	// by the shared graph/engine config before any graph work.
	if code, _, stderr := runCLI(t, tinyRun("-gen", "nosuch")...); code != 2 || !strings.Contains(stderr, `"nosuch"`) {
		t.Errorf("bad generator exit %d, want 2 naming the value (%s)", code, stderr)
	}
	if code, _, _ := runCLI(t, tinyRun("-engine", "nosuch")...); code != 2 {
		t.Errorf("bad engine exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, tinyRun("-graph-mem", "12parsecs")...); code != 2 {
		t.Errorf("bad -graph-mem exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, tinyRun("-open")...); code != 2 {
		t.Errorf("open loop without rate exit %d, want 2 (usage error)", code)
	}
	// -url can't infer the graph size; rank traffic without -vertices
	// is a usage error caught before any request is issued.
	if code, _, _ := runCLI(t, "-url", "http://127.0.0.1:1", "-queries", "10"); code != 2 {
		t.Errorf("-url rank traffic without -vertices exit %d, want 2", code)
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

func TestBuildInProcessErrors(t *testing.T) {
	build := serve.BuildConfig{Machines: 2, MaxK: 20, Seed: 1}
	if _, _, err := buildInProcess(&gio.Source{Gen: "nosuchgen", N: 100, Seed: 1}, build, ""); err == nil {
		t.Error("unknown generator accepted")
	}
	bad := build
	bad.Engine = "nosuchengine"
	if _, _, err := buildInProcess(&gio.Source{Gen: "twitterlike", N: 100, Seed: 1}, bad, ""); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, _, err := buildInProcess(&gio.Source{Path: "/no/such/file", N: 100, Seed: 1}, build, ""); err == nil {
		t.Error("missing graph file accepted")
	}
}

func TestBuildInProcessTiny(t *testing.T) {
	h, n, err := buildInProcess(&gio.Source{Gen: "twitterlike", N: 300, Seed: 1},
		serve.BuildConfig{Engine: serve.EngineGLPR, Machines: 2, MaxK: 20, Seed: 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if h == nil || n != 300 {
		t.Fatalf("handler %v, n = %d", h, n)
	}
}

// TestRunGraphCache pins the -graph-cache protocol end to end: the
// first run builds the graph and writes the gstore cache, the second
// mmaps it (same report shape, no rebuild), and a corrupt cache is a
// hard failure.
func TestRunGraphCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "g.csr")
	args := tinyRun("-graph-cache", cache)

	if code, _, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("first run exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(cache); err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	if code, stdout, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("cached run exit %d: %s", code, stderr)
	} else if !strings.Contains(stdout, "queries/s") {
		t.Fatal("cached run produced no report")
	}

	// A cache hit that contradicts the generation flags is refused.
	mismatch := append([]string{}, args...)
	for i, a := range mismatch {
		if a == "-n" {
			mismatch[i+1] = "1234"
		}
	}
	if code, _, stderr := runCLI(t, mismatch...); code != 1 || !strings.Contains(stderr, "delete the cache") {
		t.Fatalf("stale cache exit %d (want 1), stderr: %s", code, stderr)
	}

	raw, err := os.ReadFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(cache, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, args...); code != 1 {
		t.Fatalf("corrupt cache exit %d, want 1", code)
	}
}

// TestRunSnapshotDir: the first run persists its snapshot, the second
// warm-starts from it (still a clean exit and a full report).
func TestRunSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	args := tinyRun("-snapshot-dir", dir)
	if code, _, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("first run exit %d: %s", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.fws")); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}
	if code, stdout, stderr := runCLI(t, args...); code != 0 {
		t.Fatalf("warm run exit %d: %s", code, stderr)
	} else if !strings.Contains(stdout, "queries/s") {
		t.Fatal("warm run produced no report")
	}
}

// TestFlagSurface pins prload's flags: the (name, default) list was
// generated by FlagSet.VisitAll at the commit before the graph and
// engine flags moved into gio.Source and serve.BuildConfig, so a
// refactor of the shared config can neither add, drop nor re-default a
// flag unnoticed. Help text is not pinned.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"concurrency", "8"},
		{"engine", "frogwild"},
		{"gen", "twitterlike"},
		{"graph", ""},
		{"graph-cache", ""},
		{"graph-mem", ""},
		{"graph-relabel", "false"},
		{"machines", "16"},
		{"maxk", "100"},
		{"metrics-out", ""},
		{"metrics-url", ""},
		{"mix", ""},
		{"n", "50000"},
		{"open", "false"},
		{"out", "-"},
		{"queries", "4000"},
		{"ramp", "1"},
		{"rate", "0"},
		{"seed", "1"},
		{"shards", "0"},
		{"snapshot-dir", ""},
		{"timeout", "0s"},
		{"url", ""},
		{"vertices", "0"},
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
