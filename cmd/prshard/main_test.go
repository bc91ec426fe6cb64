package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

const (
	testN    = 3000
	testSeed = 1
)

// builder persists snapshots of one graph to a snapshot dir the way
// prserve -snapshot-dir does: a Refresher publishes each build and
// saves it. It runs at ps 0.4 on 4 machines, a configuration only a
// builder's flags can choose.
type builder struct {
	g   *graph.Graph
	dir string
	r   *serve.Refresher
}

func newBuilder(t *testing.T, n int) *builder {
	t.Helper()
	g, err := gen.PowerLaw(gen.TwitterLike(n, testSeed))
	if err != nil {
		t.Fatal(err)
	}
	b := &builder{g: g, dir: t.TempDir()}
	cfg := serve.BuildConfig{PS: 0.4, Machines: 4, Seed: testSeed}
	b.r = serve.NewRefresher(serve.NewStore(), serve.EngineBuilder(g, cfg), 0)
	b.r.PersistTo(b.dir, func(err error) { t.Error(err) })
	return b
}

// publish builds, publishes and persists the next epoch.
func (b *builder) publish(t *testing.T) *serve.Snapshot {
	t.Helper()
	snap, err := b.r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// path is the file the builder persists to and the shards serve.
func (b *builder) path() string { return serve.SnapshotPath(b.dir) }

// replace puts data at the snapshot path by rename, as SaveSnapshot
// does, so a reader never sees a half-written file.
func (b *builder) replace(t *testing.T, data []byte) {
	t.Helper()
	tmp := b.path() + ".test"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, b.path()); err != nil {
		t.Fatal(err)
	}
}

// encode is snap's file image.
func encode(t *testing.T, snap *serve.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serve.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// single is a single-node server over the file the builder persisted
// last.
func (b *builder) single(t *testing.T) http.Handler {
	t.Helper()
	snap, err := serve.LoadSnapshot(b.path(), b.g)
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore()
	store.Restore(snap)
	return serve.NewServer(store, serve.ServerOptions{})
}

// logSink collects a shard's log lines for a test to wait on.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// waitFor waits until substr has appeared n times in the log.
func (s *logSink) waitFor(t *testing.T, substr string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * pollInterval)
	for {
		s.mu.Lock()
		got := strings.Count(s.buf.String(), substr)
		log := s.buf.String()
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("log has %q %d times, want %d:\n%s", substr, got, n, log)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cluster is prshard processes run through the CLI entry point on
// ephemeral TCP ports, fronted by a router.
type cluster struct {
	rt    *router.Router
	logs  []*logSink
	exits []chan int
}

// startCluster starts shards shard processes over dir; shard 0 also
// serves -metrics-addr, whose bound address goes to metricsAddr.
func startCluster(t *testing.T, ctx context.Context, dir string, shards int, metricsAddr chan string) *cluster {
	t.Helper()
	c := &cluster{}
	clients := make([]*router.ShardClient, shards)
	for i := range clients {
		args := []string{
			"-addr", "127.0.0.1:0",
			"-shard", fmt.Sprint(i), "-shards", fmt.Sprint(shards),
			"-snapshot-dir", dir,
		}
		var onMetrics func(string)
		if i == 0 && metricsAddr != nil {
			args = append(args, "-metrics-addr", "127.0.0.1:0")
			onMetrics = func(a string) { metricsAddr <- a }
		}
		addr, exit, sink := make(chan string, 1), make(chan int, 1), &logSink{}
		go func() { exit <- run(ctx, args, sink, func(a string) { addr <- a }, onMetrics) }()
		select {
		case a := <-addr:
			clients[i] = router.NewShardClient(i, a, router.DialTCP(a), 5*time.Second)
		case code := <-exit:
			t.Fatalf("shard %d exited %d:\n%s", i, code, sink.buf.String())
		case <-time.After(30 * time.Second):
			t.Fatalf("shard %d did not come up", i)
		}
		c.logs = append(c.logs, sink)
		c.exits = append(c.exits, exit)
	}
	c.rt = router.New(clients, router.Options{})
	return c
}

// waitFor waits until every shard has logged substr n times.
func (c *cluster) waitFor(t *testing.T, substr string, n int) {
	t.Helper()
	for _, l := range c.logs {
		l.waitFor(t, substr, n)
	}
}

// stop waits for every shard to exit 0 after ctx is cancelled.
func (c *cluster) stop(t *testing.T, cancel context.CancelFunc) {
	t.Helper()
	cancel()
	for i, ex := range c.exits {
		select {
		case code := <-ex:
			if code != 0 {
				t.Fatalf("shard %d exited %d", i, code)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("shard %d did not shut down", i)
		}
	}
}

func get(h http.Handler, url string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

// matchSingle checks the router's /v1/topk and /v1/rank bodies against
// the single-node server's, and that they carry epoch.
func matchSingle(t *testing.T, rt, single http.Handler, epoch uint64) {
	t.Helper()
	// /healthz asks every shard, so the router's top index is not
	// reused across a newly adopted epoch.
	if code, body := get(rt, "/healthz"); code != http.StatusOK {
		t.Fatalf("router /healthz: %d %s", code, body)
	}
	urls := []string{"/v1/topk?k=1", "/v1/topk?k=20", "/v1/topk?k=100", "/v1/topk?k=150"}
	for v := 0; v < testN; v += 97 {
		urls = append(urls, fmt.Sprintf("/v1/rank?vertex=%d", v))
	}
	want := fmt.Sprintf(`"epoch":%d`, epoch)
	for _, url := range urls {
		sc, sb := get(single, url)
		rc, rb := get(rt, url)
		if sc != http.StatusOK || rc != http.StatusOK {
			t.Fatalf("%s: status single=%d router=%d (%s)", url, sc, rc, rb)
		}
		if sb != rb {
			t.Fatalf("%s: cluster body diverged from single-node\nsingle: %.200s\nrouter: %.200s", url, sb, rb)
		}
		if !strings.Contains(rb, want) {
			t.Fatalf("%s: body is not at epoch %d: %.200s", url, epoch, rb)
		}
	}
}

// TestPrshardClusterMatchesSingleNode boots a real 2-shard cluster
// through the CLI entry point over one builder's snapshot dir, fronts
// it with a router, and checks the merged answers are byte-identical
// to a single-node server over the same file: at the builder's epoch,
// and again after the shards adopt the builder's next epoch. The
// builder runs at ps 0.4, which only the file can tell a shard.
func TestPrshardClusterMatchesSingleNode(t *testing.T) {
	b := newBuilder(t, testN)
	first := b.publish(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	metricsAddr := make(chan string, 1)
	c := startCluster(t, ctx, b.dir, 2, metricsAddr)

	matchSingle(t, c.rt, b.single(t), first.Epoch)
	if ns := c.rt.NetworkStats(); ns.BytesSent == 0 || ns.BytesRecv == 0 {
		t.Fatalf("no wire bytes metered: %+v", ns)
	}

	next := b.publish(t)
	if next.Epoch != first.Epoch+1 {
		t.Fatalf("builder published epoch %d after %d", next.Epoch, first.Epoch)
	}
	c.waitFor(t, fmt.Sprintf("adopted epoch %d", next.Epoch), 1)
	matchSingle(t, c.rt, b.single(t), next.Epoch)

	// Shard 0 ran with -metrics-addr: its side listener must serve a
	// parseable Prometheus exposition reflecting the traffic above.
	select {
	case maddr := <-metricsAddr:
		resp, err := http.Get("http://" + maddr + "/metrics")
		if err != nil {
			t.Fatalf("scrape shard metrics: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape shard metrics: status %d err %v", resp.StatusCode, err)
		}
		series, err := obs.ParseText(body)
		if err != nil {
			t.Fatalf("shard exposition does not parse: %v", err)
		}
		if got := obs.FamilySum(series, "shard_requests_total"); got <= 0 {
			t.Fatalf("shard_requests_total = %v after %d queries", got, c.rt.Queries())
		}
		if got := obs.FamilySum(series, "shard_snapshot_epoch"); got != float64(next.Epoch) {
			t.Fatalf("shard_snapshot_epoch = %v, want %d", got, next.Epoch)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shard 0 never reported its metrics address")
	}
	c.stop(t, cancel)
}

// TestPrshardIgnoresBadSnapshots replaces the served file with ones a
// shard must not adopt — an older epoch, the served epoch again, a
// truncated newer epoch and a newer epoch of another graph size — and
// checks that each is logged
// and ignored while the shard keeps answering, byte-identically, at
// the epoch it serves.
func TestPrshardIgnoresBadSnapshots(t *testing.T) {
	b := newBuilder(t, testN)
	older := b.publish(t)
	olderFile := encode(t, older)
	served := b.publish(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := startCluster(t, ctx, b.dir, 2, nil)
	single := b.single(t)
	matchSingle(t, c.rt, single, served.Epoch)

	newer := *served
	newer.Epoch = served.Epoch + 1
	newerFile := encode(t, &newer)
	other := newBuilder(t, testN/2).publish(t)
	other.Epoch = served.Epoch + 1
	for i, tc := range []struct {
		name string
		data []byte
		log  string
	}{
		{"older epoch", olderFile, fmt.Sprintf("epoch %d is not newer than the served epoch %d", older.Epoch, served.Epoch)},
		{"same epoch", encode(t, served), fmt.Sprintf("epoch %d is not newer than the served epoch %d", served.Epoch, served.Epoch)},
		{"truncated", newerFile[:len(newerFile)/2], "ignoring snapshot"},
		{"other n", encode(t, other), fmt.Sprintf("has %d vertices, the served epoch %d has %d", testN/2, served.Epoch, testN)},
	} {
		b.replace(t, tc.data)
		c.waitFor(t, "ignoring snapshot", i+1)
		c.waitFor(t, tc.log, 1)
		matchSingle(t, c.rt, single, served.Epoch)
		if t.Failed() {
			t.Fatalf("after the %s file", tc.name)
		}
	}
	c.stop(t, cancel)
}

// TestPrshardStartupNeedsSnapshot pins that a shard with no file, or a
// corrupt one, to serve does not start: exit 1.
func TestPrshardStartupNeedsSnapshot(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-snapshot-dir", dir}
	var stderr bytes.Buffer
	if code := run(context.Background(), args, &stderr, nil, nil); code != 1 {
		t.Fatalf("missing file: exit %d, want 1 (%s)", code, stderr.String())
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.fws"), []byte("FWSNAP01 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run(context.Background(), args, &stderr, nil, nil); code != 1 {
		t.Fatalf("corrupt file: exit %d, want 1 (%s)", code, stderr.String())
	}
}

// TestPrshardUsageErrors pins the exit-code contract for bad flags,
// the graph, engine and refresh flags a shard no longer has included.
func TestPrshardUsageErrors(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-shard", "3", "-shards", "2", "-snapshot-dir", dir},
		{"-shards", "0", "-snapshot-dir", dir},
		{"-shard", "0", "-shards", "2"},
		{"-gen", "twitterlike", "-snapshot-dir", dir},
		{"-engine", "exact", "-snapshot-dir", dir},
		{"-refresh", "1s", "-snapshot-dir", dir},
		{"-bogus"},
	}
	for _, args := range cases {
		if code := run(context.Background(), args, io.Discard, nil, nil); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestFlagSurface pins prshard's flags as (name, default): a shard
// reads its snapshot from -snapshot-dir and has no graph, engine or
// refresh flags. Help text is not pinned.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"addr", "127.0.0.1:9001"},
		{"log-requests", "false"},
		{"metrics-addr", ""},
		{"pprof-addr", ""},
		{"shard", "0"},
		{"shards", "1"},
		{"snapshot-dir", ""},
	}
	fs, _ := newFlags(io.Discard)
	var got [][2]string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, [2]string{f.Name, f.DefValue}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
