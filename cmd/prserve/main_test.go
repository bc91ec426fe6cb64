package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

// TestUsageErrors pins the exit-code contract: a flag the shared
// graph/engine config or prserve itself refuses is exit 2, raised
// before any graph work.
func TestUsageErrors(t *testing.T) {
	// A cache file that exists used to let a misspelt -gen through.
	cache := filepath.Join(t.TempDir(), "g.csr")
	if err := os.WriteFile(cache, []byte("not read"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		stderr string // must appear on stderr
	}{
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"-gen", "twitterlike", "-engine", "bogus"}, `"bogus"`},
		{[]string{"-gen", "twitterlike", "-engine", "glpr"}, "frogwild|exact"},       // removed: glpr is the reproduction's baseline, not served
		{[]string{"-gen", "twitterlike", "-engine-workers", "2"}, "-engine-workers"}, // removed: GOMAXPROCS sizes the pools
		{[]string{"-gen", "twitterlike", "-workers", "2"}, "-workers"},
		{[]string{"-gen", "twitterlike", "-graph-mem", "12parsecs"}, `"12parsecs"`},
		{[]string{"-shards", " , "}, "-shards"},
		{[]string{"-gen", "foo"}, `unknown generator "foo"`},
		{[]string{"-gen", "foo", "-graph-cache", cache}, `unknown generator "foo"`},
		// Zero used to fall back to the default (0.7, 16, 100); the
		// others failed with exit 1 once the graph had loaded.
		{[]string{"-gen", "twitterlike", "-ps", "0"}, `"0" for flag -ps`},
		{[]string{"-gen", "twitterlike", "-ps", "1.5"}, `"1.5" for flag -ps`},
		{[]string{"-gen", "twitterlike", "-ps", "NaN"}, `"NaN" for flag -ps`},
		{[]string{"-gen", "twitterlike", "-machines", "0"}, `"0" for flag -machines`},
		{[]string{"-gen", "twitterlike", "-machines", "-1"}, `"-1" for flag -machines`},
		{[]string{"-gen", "twitterlike", "-machines", "4097"}, `"4097" for flag -machines`},
		{[]string{"-gen", "twitterlike", "-maxk", "0"}, `"0" for flag -maxk`},
		{[]string{"-gen", "twitterlike", "-maxk", "ten"}, `"ten" for flag -maxk`},
		{[]string{"-gen", "twitterlike", "-walkers", "-5"}, `"-5" for flag -walkers`},
		{[]string{"-gen", "twitterlike", "-iters", "-3"}, `"-3" for flag -iters`},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stderr, nil); code != 2 {
			t.Errorf("args %q: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		} else if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("args %q: stderr does not mention %s:\n%s", tc.args, tc.stderr, stderr.String())
		}
	}
	// Not a usage error: well-formed flags that name no graph.
	if code := run(context.Background(), nil, io.Discard, nil); code != 1 {
		t.Errorf("no graph: exit %d, want 1", code)
	}
}

// TestFlagSurface pins prserve's flags: the (name, default) list was
// generated by FlagSet.VisitAll at the commit before the graph and
// engine flags moved into gio.Source and serve.BuildConfig, less the
// two worker-count flags removed since, so a refactor of the shared
// config can neither add, drop nor re-default a flag unnoticed. Help
// text is not pinned.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"addr", ":8080"},
		{"engine", "frogwild"},
		{"gen", ""},
		{"graph", ""},
		{"graph-cache", ""},
		{"graph-mem", ""},
		{"graph-relabel", "false"},
		{"iters", "0"},
		{"log-requests", "false"},
		{"machines", "16"},
		{"maxk", "100"},
		{"n", "50000"},
		{"ppr-budget", "0"},
		{"ppr-cache", "0"},
		{"ppr-max-sources", "0"},
		{"ppr-maxk", "0"},
		{"ppr-walks", "0"},
		{"pprof-addr", ""},
		{"ps", "0.7"},
		{"refresh", "0s"},
		{"seed", "1"},
		{"shard-timeout", "2s"},
		{"shards", ""},
		{"snapshot-dir", ""},
		{"walkers", "0"},
	}
	fs, _ := newFlags(io.Discard)
	var got [][2]string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, [2]string{f.Name, f.DefValue}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// prserve is one running CLI body on an ephemeral port.
type prserve struct {
	addr string
	stop func() int // cancels the run and returns its exit code
}

func startPrserve(t *testing.T, args ...string) prserve {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	var stderr bytes.Buffer
	go func() {
		exit <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &stderr, func(a string) { ready <- a })
	}()
	wait := func() int {
		select {
		case code := <-exit:
			return code
		case <-time.After(60 * time.Second):
			t.Fatal("prserve did not exit")
			return -1
		}
	}
	p := prserve{stop: func() int { cancel(); return wait() }}
	t.Cleanup(cancel)
	select {
	case p.addr = <-ready:
	case code := <-exit:
		t.Fatalf("prserve exited %d before serving: %s", code, stderr.String())
	case <-time.After(60 * time.Second):
		t.Fatal("prserve did not come up")
	}
	return p
}

func (p prserve) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

var tinyGraph = []string{"-gen", "twitterlike", "-n", "2000", "-machines", "4", "-seed", "9"}

// TestSingleNode runs the CLI body end to end: it serves the query API
// and /metrics on the bound port, and a cancelled context is a graceful
// shutdown with exit 0.
func TestSingleNode(t *testing.T) {
	p := startPrserve(t, tinyGraph...)
	if code, body := p.get(t, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz: %d %s", code, body)
	}
	if code, body := p.get(t, "/v1/topk?k=5"); code != http.StatusOK || !strings.Contains(body, `"epoch":1`) || !strings.Contains(body, `"k":5`) {
		t.Errorf("/v1/topk: %d %s", code, body)
	}
	code, body := p.get(t, "/metrics")
	series, err := obs.ParseText([]byte(body))
	if code != http.StatusOK || err != nil {
		t.Fatalf("/metrics: %d, parse error %v", code, err)
	}
	if got := obs.FamilySum(series, "serve_requests_total"); got != 1 {
		t.Errorf("serve_requests_total = %v, want 1 (the topk query)", got)
	}
	if code := p.stop(); code != 0 {
		t.Fatalf("exit %d after cancel, want 0", code)
	}
}

// TestRunLifecycle: run returns only after the background refresher has
// stopped, so the snapshot a refresh in flight persists is whole and no
// later epoch is written; an address that cannot be listened on is a
// runtime failure, exit 1.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	p := startPrserve(t, append([]string{"-snapshot-dir", dir, "-refresh", "5ms"}, tinyGraph...)...)
	// Wait for two refreshes to have published. A refresh of this graph
	// can take less time than one poll, so the poll may never see epoch 3
	// itself: any later epoch will do.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, body := p.get(t, "/v1/topk?k=1")
		var top struct {
			Epoch uint64 `json:"epoch"`
		}
		if json.Unmarshal([]byte(body), &top) == nil && top.Epoch >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no epoch 3 or later from a 5ms refresh cadence: %s", body)
		}
		time.Sleep(time.Millisecond)
	}
	if code := p.stop(); code != 0 {
		t.Fatalf("exit %d after cancel, want 0", code)
	}
	path := serve.SnapshotPath(dir)
	last, err := serve.LoadSnapshot(path, nil)
	if err != nil {
		t.Fatalf("snapshot persisted at shutdown does not load: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // ten refresh intervals
	again, err := serve.LoadSnapshot(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != last.Epoch {
		t.Fatalf("a refresh ran after run returned: epoch %d became %d", last.Epoch, again.Epoch)
	}

	var stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"-addr", "256.0.0.1:http"}, tinyGraph...), &stderr, nil); code != 1 {
		t.Fatalf("unlistenable address: exit %d, want 1 (stderr %s)", code, stderr.String())
	}
}

// TestRouterModeMatchesSingleNode fronts two shard workers with prserve
// -shards and checks it answers /v1/topk with the bytes of the
// single-node prserve whose -snapshot-dir the workers serve. The
// workers are assembled as cmd/prshard assembles them (a main package
// cannot be imported): from the persisted snapshot, with no graph.
func TestRouterModeMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	single := startPrserve(t, append([]string{"-snapshot-dir", dir}, tinyGraph...)...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const shards = 2
	addrs := make([]string, shards)
	for id := range addrs {
		snap, err := serve.LoadSnapshot(serve.SnapshotPath(dir), nil)
		if err != nil {
			t.Fatal(err)
		}
		store := serve.NewStore()
		store.Restore(snap)
		owned := router.Stride(len(snap.Ranks), shards, id)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go router.NewShardServer(id, shards, owned, store).Serve(ctx, ln) //nolint:errcheck // lives until ctx cancel
		addrs[id] = ln.Addr().String()
	}

	routed := startPrserve(t, "-shards", strings.Join(addrs, " , "))
	for _, path := range []string{"/v1/topk?k=5", "/v1/topk?k=100", "/v1/topk"} {
		sc, sb := single.get(t, path)
		rc, rb := routed.get(t, path)
		if sc != http.StatusOK || rc != http.StatusOK {
			t.Fatalf("%s: status single=%d router=%d (%s)", path, sc, rc, rb)
		}
		if sb != rb {
			t.Fatalf("%s: router body diverged from single-node\nsingle: %.200s\nrouter: %.200s", path, sb, rb)
		}
	}
	if code, body := routed.get(t, "/healthz"); code != http.StatusOK {
		t.Errorf("router /healthz: %d %s", code, body)
	}
	if code := routed.stop(); code != 0 {
		t.Errorf("router exit %d after cancel, want 0", code)
	}
	if code := single.stop(); code != 0 {
		t.Errorf("single node exit %d after cancel, want 0", code)
	}
}

// TestRunGraphCache pins the -graph-cache protocol end to end: the
// first run builds the graph and writes the gstore cache, the second
// maps it (same answers, file untouched), a cache that contradicts the
// generation flags is refused, and a corrupt one is a hard failure.
func TestRunGraphCache(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "g.csr")
	args := append([]string{"-graph-cache", cache}, tinyGraph...)

	first := startPrserve(t, args...)
	_, built := first.get(t, "/v1/topk?k=10")
	if code := first.stop(); code != 0 {
		t.Fatalf("first run exit %d", code)
	}
	written, err := os.ReadFile(cache)
	if err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	second := startPrserve(t, args...)
	if code, cached := second.get(t, "/v1/topk?k=10"); code != http.StatusOK || cached != built {
		t.Errorf("cached run answers %d %s, the building run answered %s", code, cached, built)
	}
	if code := second.stop(); code != 0 {
		t.Fatalf("cached run exit %d", code)
	}
	if now, err := os.ReadFile(cache); err != nil || !bytes.Equal(now, written) {
		t.Errorf("cached run rewrote the cache (read error %v)", err)
	}

	// A cache hit that contradicts the generation flags is refused.
	var stderr bytes.Buffer
	mismatch := append([]string{"-addr", "127.0.0.1:0", "-graph-cache", cache}, "-gen", "twitterlike", "-n", "1234")
	if code := run(context.Background(), mismatch, &stderr, nil); code != 1 || !strings.Contains(stderr.String(), "delete the cache") {
		t.Fatalf("stale cache exit %d (want 1), stderr: %s", code, stderr.String())
	}

	written[len(written)/2] ^= 0xff
	if err := os.WriteFile(cache, written, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, nil); code != 1 {
		t.Fatalf("corrupt cache exit %d, want 1", code)
	}
}

// TestRunSnapshotDir: the first run persists its snapshot, the second
// warm-starts from it. With no -refresh a cold start serves epoch 1
// forever; only a warm start, which replaces the restored estimate
// once in the background, ever publishes epoch 2.
func TestRunSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-snapshot-dir", dir}, tinyGraph...)

	first := startPrserve(t, args...)
	if code, body := first.get(t, "/v1/topk?k=5"); code != http.StatusOK || !strings.Contains(body, `"epoch":1,`) {
		t.Fatalf("cold start: %d %s", code, body)
	}
	if code := first.stop(); code != 0 {
		t.Fatalf("first run exit %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.fws")); err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	second := startPrserve(t, args...)
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := second.get(t, "/v1/topk?k=5")
		if code != http.StatusOK {
			t.Fatalf("warm start: %d %s", code, body)
		}
		if strings.Contains(body, `"epoch":2,`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no epoch 2 after a restart on a persisted epoch 1: not a warm start (%s)", body)
		}
	}
	if code := second.stop(); code != 0 {
		t.Fatalf("warm run exit %d", code)
	}
}
