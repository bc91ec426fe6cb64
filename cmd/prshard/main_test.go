package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

// TestPrshardClusterMatchesSingleNode boots a real 2-shard cluster
// through the CLI entry point (TCP listeners on ephemeral ports),
// fronts it with a router, and checks the merged answers are
// byte-identical to a single-node server over the same deterministic
// snapshot — then shuts everything down gracefully.
func TestPrshardClusterMatchesSingleNode(t *testing.T) {
	const (
		shards = 2
		n      = 3000
		seed   = 1
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrs := make([]chan string, shards)
	exits := make([]chan int, shards)
	metricsAddr := make(chan string, 1)
	for i := 0; i < shards; i++ {
		addrs[i] = make(chan string, 1)
		exits[i] = make(chan int, 1)
		args := []string{
			"-addr", "127.0.0.1:0",
			"-shard", fmt.Sprint(i), "-shards", fmt.Sprint(shards),
			"-gen", "twitterlike", "-n", fmt.Sprint(n),
			"-engine", "exact", "-seed", fmt.Sprint(seed),
		}
		var onMetrics func(string)
		if i == 0 {
			args = append(args, "-metrics-addr", "127.0.0.1:0")
			onMetrics = func(a string) { metricsAddr <- a }
		}
		ch := addrs[i]
		ex := exits[i]
		go func() { ex <- run(ctx, args, io.Discard, func(a string) { ch <- a }, onMetrics) }()
	}
	clients := make([]*router.ShardClient, shards)
	for i, ch := range addrs {
		select {
		case addr := <-ch:
			clients[i] = router.NewShardClient(i, addr, router.DialTCP(addr), 5*time.Second)
		case <-time.After(60 * time.Second):
			t.Fatalf("shard %d did not come up", i)
		}
	}
	rt := router.New(clients, router.Options{})

	g, err := repro.TwitterLikeGraph(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := serve.Build(g, serve.BuildConfig{
		Engine: serve.EngineExact, Machines: 16, Seed: seed, MaxK: serve.DefaultMaxK,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := serve.NewStore()
	store.Publish(snap)
	single := serve.NewServer(store, serve.ServerOptions{})

	get := func(h http.Handler, url string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code, rec.Body.String()
	}
	for _, url := range []string{"/v1/topk?k=15", "/v1/topk?k=100", "/v1/rank?vertex=42"} {
		sc, sb := get(single, url)
		rc, rb := get(rt, url)
		if sc != http.StatusOK || rc != http.StatusOK {
			t.Fatalf("%s: status single=%d router=%d (%s)", url, sc, rc, rb)
		}
		if sb != rb {
			t.Fatalf("%s: cluster body diverged from single-node\nsingle: %.200s\nrouter: %.200s", url, sb, rb)
		}
	}
	if ns := rt.NetworkStats(); ns.BytesSent == 0 || ns.BytesRecv == 0 {
		t.Fatalf("no wire bytes metered: %+v", ns)
	}

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
			t.Fatalf("shard_requests_total = %v after %d queries", got, rt.Queries())
		}
		if got := obs.FamilySum(series, "refresh_builds_total"); got != 1 {
			t.Fatalf("refresh_builds_total = %v, want 1", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("shard 0 never reported its metrics address")
	}

	cancel()
	for i, ex := range exits {
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

// TestPrshardUsageErrors pins the exit-code contract for bad flags.
func TestPrshardUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-shard", "3", "-shards", "2", "-gen", "twitterlike"},
		{"-shards", "0", "-gen", "twitterlike"},
		{"-engine", "nope", "-gen", "twitterlike"},
		{"-gen", "foo"},
		{"-gen", "twitterlike", "-graph-mem", "12parsecs"},
		{"-bogus"},
	}
	for _, args := range cases {
		if code := run(context.Background(), args, io.Discard, nil, nil); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestFlagSurface pins prshard's flags: the (name, default) list was
// generated by FlagSet.VisitAll at the commit before the graph and
// engine flags moved into gio.Source and serve.BuildConfig, so a
// refactor of the shared config can neither add, drop nor re-default a
// flag unnoticed. Help text is not pinned.
func TestFlagSurface(t *testing.T) {
	want := [][2]string{
		{"addr", "127.0.0.1:9001"},
		{"engine", "frogwild"},
		{"gen", ""},
		{"graph", ""},
		{"graph-cache", ""},
		{"graph-mem", ""},
		{"graph-relabel", "false"},
		{"log-requests", "false"},
		{"machines", "16"},
		{"maxk", "100"},
		{"metrics-addr", ""},
		{"n", "50000"},
		{"pprof-addr", ""},
		{"refresh", "0s"},
		{"seed", "1"},
		{"shard", "0"},
		{"shards", "1"},
	}
	fs, _ := newFlags(io.Discard)
	var got [][2]string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, [2]string{f.Name, f.DefValue}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
