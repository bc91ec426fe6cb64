package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from current output")

// goldenRegistry builds a registry with one of everything, using fixed
// values, so the rendered exposition is fully deterministic.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	c := reg.RegisterCounter("serve_requests_total", "Total queries across the /v1 endpoints.", nil, new(Counter))
	c.Add(42)
	reg.RegisterCounter("serve_topk_cache_hits_total", "Top-k queries answered from the per-k body cache.", nil, new(Counter)).Add(7)
	g := reg.RegisterGauge("snapshot_epoch", "Epoch of the published snapshot.", nil, new(Gauge))
	g.Set(3)
	reg.GaugeFunc("snapshot_age_seconds", "Seconds since the snapshot was built.", nil, func() float64 { return 1.5 })
	// Labeled family with escaping hazards in a value.
	reg.RegisterCounter("shard_ops_total", "RPC ops handled, by op.", Labels{"shard": "0", "op": "topk"}, new(Counter)).Add(5)
	reg.RegisterCounter("shard_ops_total", "RPC ops handled, by op.", Labels{"shard": "0", "op": `we"ird\nl`}, new(Counter)).Inc()
	lat := reg.Latency("serve_request_seconds", "Request handling latency.", Labels{"endpoint": "topk"})
	for _, d := range []time.Duration{
		30 * time.Microsecond, 30 * time.Microsecond, 800 * time.Microsecond,
		3 * time.Millisecond, 40 * time.Millisecond, 2 * time.Second, 30 * time.Second,
	} {
		lat.Observe(d)
	}
	// An empty latency family renders all-zero buckets, not garbage.
	reg.Latency("serve_request_seconds", "Request handling latency.", Labels{"endpoint": "rank"})
	return reg
}

// TestPrometheusGolden pins the full exposition byte-for-byte: stable
// family and series ordering, HELP/TYPE lines, label escaping, and
// histogram bucket/sum/count rendering.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to generate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden; rerun with -update-golden if intended\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestExpositionWellFormed checks structural invariants the golden
// file cannot express: every sample line parses, every family has
// exactly one HELP and one TYPE line, immediately adjacent.
func TestExpositionWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no samples parsed")
	}
	helps := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && fields[0] == "# HELP" {
			helps[fields[2]]++
		}
		if len(fields) >= 3 && fields[1] == "HELP" {
			helps[fields[2]]++
		}
	}
	for name, n := range helps {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines", name, n)
		}
	}
	// Histogram accounting: +Inf bucket == _count, buckets cumulative.
	if series[`serve_request_seconds_bucket{endpoint="topk",le="+Inf"}`] != series[`serve_request_seconds_count{endpoint="topk"}`] {
		t.Error("+Inf bucket disagrees with _count")
	}
	if got := series[`serve_request_seconds_count{endpoint="topk"}`]; got != 7 {
		t.Errorf("histogram count = %v, want 7", got)
	}
	// 30s sample lies above the last bound: cumulative at le=10 is 6.
	if got := series[`serve_request_seconds_bucket{endpoint="topk",le="10"}`]; got != 6 {
		t.Errorf("le=10 cumulative = %v, want 6", got)
	}
	if got := series[`serve_request_seconds_bucket{endpoint="topk",le="0.0001"}`]; got != 2 {
		t.Errorf("le=0.0001 cumulative = %v, want 2 (two 30µs samples)", got)
	}
	if got := FamilySum(series, "shard_ops_total"); got != 6 {
		t.Errorf("FamilySum(shard_ops_total) = %v, want 6", got)
	}
	// FamilySum must not fold histogram suffix series into the base name.
	if got := FamilySum(series, "serve_request_seconds"); got != 0 {
		t.Errorf("FamilySum(serve_request_seconds) = %v, want 0 (suffixes are separate families)", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCounter("x_total", "x", Labels{"a": "1"}, new(Counter))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate series", func() { reg.RegisterCounter("x_total", "x", Labels{"a": "1"}, new(Counter)) })
	mustPanic("kind mismatch within family", func() { reg.RegisterGauge("x_total", "x", Labels{"a": "2"}, new(Gauge)) })
	// Distinct labels under the same name are fine.
	reg.RegisterCounter("x_total", "x", Labels{"a": "2"}, new(Counter))
}

// TestConcurrentScrape hammers instruments from many goroutines while
// scraping continuously; run under -race this pins the registry's
// concurrency contract.
func TestConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.RegisterCounter("c_total", "c", nil, new(Counter))
	g := reg.RegisterGauge("g", "g", nil, new(Gauge))
	l := reg.Latency("l_seconds", "l", nil)
	reg.GaugeFunc("f", "f", nil, func() float64 { return float64(c.Value()) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Set(float64(i))
				l.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			if _, err := ParseText(rec.Body.Bytes()); err != nil {
				t.Error(err)
				return
			}
			// Registration during scrape must also be safe.
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			reg.RegisterCounter("late_total", "registered mid-scrape", Labels{"i": time.Duration(i).String()}, new(Counter))
		}
	}()
	// Wait for the workers (first 4) and the late registrar; then stop
	// the scraper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if l.Snapshot().Count() != 8000 {
		t.Fatalf("latency count = %d, want 8000", l.Snapshot().Count())
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Fatalf("ids not unique: %q %q", a, b)
	}
	if CleanRequestID(a) != a {
		t.Fatalf("generated id %q does not survive sanitizing", a)
	}
	for in, want := range map[string]string{
		"abc-123":                "abc-123",
		"has space":              "hasspace",
		"quo\"te\\back":          "quoteback",
		"ctrl\n\tchars":          "ctrlchars",
		strings.Repeat("x", 200): strings.Repeat("x", 64),
	} {
		if got := CleanRequestID(in); got != want {
			t.Errorf("CleanRequestID(%q) = %q, want %q", in, got, want)
		}
	}
	// EnsureRequestID: keeps a usable client id, generates otherwise,
	// and always echoes on the response.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(RequestIDHeader, "client-id-7")
	if got := EnsureRequestID(rec, req); got != "client-id-7" {
		t.Fatalf("EnsureRequestID kept %q, want client-id-7", got)
	}
	if rec.Header().Get(RequestIDHeader) != "client-id-7" {
		t.Fatal("response header not stamped")
	}
	rec = httptest.NewRecorder()
	if got := EnsureRequestID(rec, httptest.NewRequest("GET", "/", nil)); got == "" || rec.Header().Get(RequestIDHeader) != got {
		t.Fatalf("generated id %q not echoed", got)
	}
}

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	if !l.Enabled() {
		t.Fatal("logger with writer not enabled")
	}
	l.Log(Entry{Component: "serve", RID: "r-1", Method: "GET", Path: "/v1/topk", Query: "k=20", Status: 200, Epoch: 3, DurMS: 1.25})
	l.Log(Entry{Component: "shard", RID: "r-1", Op: "topk", K: 20, Code: "no_snapshot", DurMS: 0.1})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
		if e.RID != "r-1" || e.Time == "" {
			t.Fatalf("line %q missing rid or timestamp", line)
		}
	}
	// Nil logger: no-ops, never panics.
	var nilLogger *Logger
	if nilLogger.Enabled() {
		t.Fatal("nil logger claims enabled")
	}
	nilLogger.Log(Entry{Component: "x"})
	if NewLogger(nil).Enabled() {
		t.Fatal("NewLogger(nil) claims enabled")
	}
}
