package router

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// testGraph is a small power-law graph shared across router tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tieRanks builds a rank vector full of deliberate ties (few distinct
// values), so every top-k selection cut lands inside a tie run and any
// divergence between sharded and single-node tie-breaking shows up.
func tieRanks(n int, src int64) []float64 {
	r := rand.New(rand.NewSource(src))
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = float64(r.Intn(7)) / float64(10*n)
	}
	return ranks
}

// publishRanks wraps ranks in a snapshot and publishes it to store.
func publishRanks(t testing.TB, store *serve.Store, g *graph.Graph, ranks []float64) *serve.Snapshot {
	t.Helper()
	snap, err := serve.FromRanks(g, serve.EngineFrogWild, 11, ranks, 50)
	if err != nil {
		t.Fatal(err)
	}
	return store.Publish(snap)
}

// newShards builds one ShardServer per shard over the given stores
// (stores[i] backs shard i; pass the same store everywhere for a
// cluster that refreshes atomically).
func newShards(t testing.TB, g *graph.Graph, stores []*serve.Store) []*ShardServer {
	t.Helper()
	shards := len(stores)
	servers := make([]*ShardServer, shards)
	seen := make([]bool, g.NumVertices())
	for i := 0; i < shards; i++ {
		owned := Stride(g.NumVertices(), shards, i)
		for _, v := range owned {
			if seen[v] {
				t.Fatalf("vertex %d owned by two shards", v)
			}
			seen[v] = true
		}
		servers[i] = NewShardServer(i, shards, owned, stores[i])
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d owned by no shard", v)
		}
	}
	return servers
}

// newRouter wires pipe-transport clients over the shard servers.
func newRouter(servers []*ShardServer, opts Options) *Router {
	clients := make([]*ShardClient, len(servers))
	for i, srv := range servers {
		clients[i] = NewShardClient(i, fmt.Sprintf("pipe-%d", i), PipeDialer(srv), time.Second)
	}
	return New(clients, opts)
}

// get performs one GET against a handler and returns status + body.
func get(t testing.TB, h http.Handler, url string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body)
}

// fakeClock stands in for Router.now, so tests step across the top
// index's freshness window instead of sleeping through it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// freeze puts rt on a fake clock that only moves when advanced.
func freeze(rt *Router) *fakeClock {
	c := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	rt.now = func() time.Time { return c.t }
	return c
}

// shardQueries sums the RPCs the shards have answered: a router reply
// that does not move it touched no socket.
func shardQueries(servers []*ShardServer) uint64 {
	var total uint64
	for _, s := range servers {
		total += s.Queries()
	}
	return total
}

// topKBody decodes a /v1/topk body.
func topKBody(t testing.TB, body string) api.TopKResponse {
	t.Helper()
	var resp api.TopKResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("%v (body %.200s)", err, body)
	}
	return resp
}

// TestShardedBitIdenticalToSingleNode is the tentpole property: for
// shard counts 1/2/4/7 over an in-memory pipe transport, the router's
// healthy /v1/topk and /v1/rank bodies are byte-identical to a
// single-node server answering from the same snapshot — including tie
// runs straddling every selection cut.
func TestShardedBitIdenticalToSingleNode(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store := serve.NewStore()
			publishRanks(t, store, g, tieRanks(n, 42))
			single := serve.NewServer(store, serve.ServerOptions{})
			stores := make([]*serve.Store, shards)
			for i := range stores {
				stores[i] = store
			}
			rt := newRouter(newShards(t, g, stores), Options{})

			// Every k up to 50, the snapshots' MaxK, is answered as a
			// prefix of each shard's index; 51 is the first that selects
			// per query; n-1 exceeds every shard's owned count once there
			// are two shards, n+9 the graph.
			var ks []int
			for k := 1; k <= 50; k++ {
				ks = append(ks, k)
			}
			for _, k := range append(ks, 51, 63, 500, n-1, n, n+9) {
				url := fmt.Sprintf("/v1/topk?k=%d", k)
				sc, sb := get(t, single, url)
				rc, rb := get(t, rt, url)
				if sc != http.StatusOK || rc != http.StatusOK {
					t.Fatalf("k=%d: status single=%d router=%d", k, sc, rc)
				}
				if sb != rb {
					t.Fatalf("k=%d: sharded body diverged from single-node\nsingle: %.200s\nrouter: %.200s", k, sb, rb)
				}
			}
			for _, v := range []int{0, 1, 17, n / 2, n - 1} {
				url := fmt.Sprintf("/v1/rank?vertex=%d", v)
				sc, sb := get(t, single, url)
				rc, rb := get(t, rt, url)
				if sc != http.StatusOK || rc != http.StatusOK {
					t.Fatalf("vertex=%d: status single=%d router=%d", v, sc, rc)
				}
				if sb != rb {
					t.Fatalf("vertex=%d: rank body diverged\nsingle: %s\nrouter: %s", v, sb, rb)
				}
			}
			if rt.Degraded() != 0 || rt.EpochFallbacks() != 0 {
				t.Fatalf("healthy cluster took fallbacks: degraded=%d epochFallbacks=%d",
					rt.Degraded(), rt.EpochFallbacks())
			}
		})
	}
}

// TestEpochStraddleFallsBackToCommonEpoch refreshes only some shards.
// Inside the freshness window the router keeps answering from its
// epoch-1 index without asking anyone; once the window ends — the clock
// passes 100 ms, or a /v1/rank reply shows it epoch 2 — the fan-out runs
// the straddle rule and answers exactly at the oldest live epoch (the
// laggard's), served from the leaders' retained previous snapshots: not
// a cross-epoch Frankenstein merge, and not a degraded response. A
// straddled answer is never kept as fresh, so the caught-up cluster is
// served at epoch 2 by the very next query.
func TestEpochStraddleFallsBackToCommonEpoch(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	const shards = 4
	oldRanks, newRanks := tieRanks(n, 1), tieRanks(n, 2)
	// The exact epoch-1 answer, from a single node that stays there.
	st := serve.NewStore()
	publishRanks(t, st, g, append([]float64(nil), oldRanks...))
	_, want := get(t, serve.NewServer(st, serve.ServerOptions{}), "/v1/topk?k=25")

	for _, trigger := range []string{"clock", "rank"} {
		t.Run(trigger, func(t *testing.T) {
			stores := make([]*serve.Store, shards)
			for i := range stores {
				stores[i] = serve.NewStore()
				publishRanks(t, stores[i], g, oldRanks)
			}
			servers := newShards(t, g, stores)
			rt := newRouter(servers, Options{})
			clock := freeze(rt)

			// Builds the index and warms every shard's retention ring at
			// epoch 1.
			if code, _ := get(t, rt, "/v1/topk?k=25"); code != http.StatusOK {
				t.Fatalf("warmup status %d", code)
			}
			// Epoch 2 lands on all shards but the last.
			for i := 0; i < shards-1; i++ {
				publishRanks(t, stores[i], g, newRanks)
			}

			// Inside the window, up to its last instant: the index answers.
			clock.advance(freshWindow)
			asked := shardQueries(servers)
			code, body := get(t, rt, "/v1/topk?k=25")
			if code != http.StatusOK || body != want {
				t.Fatalf("inside the window: status %d, exact epoch-1 body %v", code, body == want)
			}
			if shardQueries(servers) != asked || rt.EpochFallbacks() != 0 {
				t.Fatalf("inside the window the router asked the shards: %d RPCs, %d epoch fallbacks",
					shardQueries(servers)-asked, rt.EpochFallbacks())
			}

			if trigger == "clock" {
				clock.advance(time.Nanosecond)
			} else {
				// One rank reply from a shard that is already at epoch 2.
				url := fmt.Sprintf("/v1/rank?vertex=%d", servers[0].owned[0])
				if code, body := get(t, rt, url); code != http.StatusOK {
					t.Fatalf("rank status %d: %s", code, body)
				}
			}
			code, body = get(t, rt, "/v1/topk?k=25")
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			resp := topKBody(t, body)
			if resp.Epoch != 1 {
				t.Fatalf("straddled cluster answered epoch %d, want the common epoch 1", resp.Epoch)
			}
			if resp.Degraded {
				t.Fatal("epoch fallback must not be marked degraded: it is exact at the older epoch")
			}
			if rt.EpochFallbacks() != 1 {
				t.Fatalf("epoch fallbacks = %d, want 1", rt.EpochFallbacks())
			}
			if body != want {
				t.Fatalf("epoch-fallback body is not the exact epoch-1 answer\n got %.200s\nwant %.200s", body, want)
			}

			// Once the laggard catches up, the cluster serves epoch 2 — with
			// the clock standing still, because a straddled answer is not
			// fresh.
			publishRanks(t, stores[shards-1], g, append([]float64(nil), newRanks...))
			_, body = get(t, rt, "/v1/topk?k=25")
			if resp = topKBody(t, body); resp.Epoch != 2 || resp.Degraded {
				t.Fatalf("caught-up cluster: epoch %d degraded=%v", resp.Epoch, resp.Degraded)
			}
			if rt.EpochFallbacks() != 1 {
				t.Fatalf("agreeing cluster counted a fallback: %d", rt.EpochFallbacks())
			}
		})
	}
}

// flakyDial wraps a DialFunc with a kill switch, simulating a shard
// process dying mid-load.
type flakyDial struct {
	inner DialFunc
	dead  atomic.Bool
}

func (f *flakyDial) dial() (net.Conn, error) {
	if f.dead.Load() {
		return nil, fmt.Errorf("shard down")
	}
	return f.inner()
}

// deadCluster builds a 3-shard pipe cluster where shard 2's transport
// can be killed.
func deadCluster(t *testing.T) (*Router, *flakyDial, *serve.Store, *graph.Graph) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 3))
	servers := newShards(t, g, []*serve.Store{store, store, store})
	flaky := &flakyDial{inner: PipeDialer(servers[2])}
	clients := []*ShardClient{
		NewShardClient(0, "pipe-0", PipeDialer(servers[0]), time.Second),
		NewShardClient(1, "pipe-1", PipeDialer(servers[1]), time.Second),
		NewShardClient(2, "pipe-2", flaky.dial, time.Second),
	}
	return New(clients, Options{}), flaky, store, g
}

// TestShardDeathDegradesInsteadOfFailing kills one shard after a
// healthy query and checks the router keeps answering. Inside the
// freshness window a covered k is still the exact answer at its stamped
// epoch, not degraded; once the window ends the index comes back marked
// degraded for every k it covers, while a k it does not cover gets the
// unavailable envelope; after revival answers are exact again.
func TestShardDeathDegradesInsteadOfFailing(t *testing.T) {
	rt, flaky, _, g := deadCluster(t)
	clock := freeze(rt)
	owned := Stride(g.NumVertices(), 3, 2)
	rankURL := fmt.Sprintf("/v1/rank?vertex=%d", owned[0]) // the dying shard's

	codeOK, healthy := get(t, rt, "/v1/topk?k=10")
	if codeOK != http.StatusOK {
		t.Fatalf("healthy status %d", codeOK)
	}
	_, healthy4 := get(t, rt, "/v1/topk?k=4")
	if _, rankBody := get(t, rt, rankURL); rankBody == "" {
		t.Fatal("empty healthy rank body")
	}

	flaky.dead.Store(true)
	// Drain pooled connections so the death is visible immediately.
	for _, c := range rt.clients {
		c.Close()
	}

	// Inside the window nothing has contradicted the index yet.
	for url, want := range map[string]string{"/v1/topk?k=10": healthy, "/v1/topk?k=4": healthy4} {
		if code, body := get(t, rt, url); code != http.StatusOK || body != want {
			t.Fatalf("%s inside the window: status %d, body\n%s\nwant\n%s", url, code, body, want)
		}
	}
	if rt.Degraded() != 0 {
		t.Fatalf("degraded = %d inside the window", rt.Degraded())
	}

	clock.advance(freshWindow + time.Nanosecond)
	want := topKBody(t, healthy)
	for _, k := range []int{10, 4, 1} {
		code, body := get(t, rt, fmt.Sprintf("/v1/topk?k=%d", k))
		if code != http.StatusOK {
			t.Fatalf("degraded k=%d status %d: %s", k, code, body)
		}
		// Byte for byte: encoding/json's body for the index's top-k,
		// marked degraded.
		stale := want
		stale.K, stale.Entries, stale.Degraded = k, want.Entries[:k], true
		wantBody, err := json.Marshal(stale)
		if err != nil {
			t.Fatal(err)
		}
		if body != string(wantBody)+"\n" {
			t.Fatalf("k=%d: degraded body\n%s\nwant the index's prefix marked degraded\n%s", k, body, wantBody)
		}
	}
	if rt.Degraded() != 3 {
		t.Fatalf("degraded = %d, want 3", rt.Degraded())
	}

	// A k beyond the largest asked has no fallback: unavailable envelope.
	code, body := get(t, rt, "/v1/topk?k=11")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("uncovered k with dead shard: status %d, want 503", code)
	}
	var env api.Error
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != api.CodeUnavailable {
		t.Fatalf("envelope code %q, want %q", env.Code, api.CodeUnavailable)
	}

	// Rank served from the vertex's last exact answer, marked degraded.
	code, body = get(t, rt, rankURL)
	if code != http.StatusOK {
		t.Fatalf("degraded rank status %d: %s", code, body)
	}
	var rank api.RankResponse
	if err := json.Unmarshal([]byte(body), &rank); err != nil {
		t.Fatal(err)
	}
	if !rank.Degraded || rank.Vertex != owned[0] {
		t.Fatalf("degraded rank: %+v", rank)
	}

	// Revival: the next query is exact again and drops the flag.
	flaky.dead.Store(false)
	code, body = get(t, rt, "/v1/topk?k=10")
	if code != http.StatusOK {
		t.Fatalf("revived status %d", code)
	}
	if body != healthy {
		t.Fatalf("revived body differs from the healthy answer")
	}
}

// TestHealthzAggregatesShards pins the router health view: ok with
// per-shard ids and epochs when all shards are live and fresh, 503
// "degraded" when one is dead or lags the freshest epoch.
func TestHealthzAggregatesShards(t *testing.T) {
	rt, flaky, store, g := deadCluster(t)

	code, body := get(t, rt, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy healthz status %d: %s", code, body)
	}
	var h api.HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 || len(h.Shards) != 3 {
		t.Fatalf("healthy healthz: %+v", h)
	}
	for i, row := range h.Shards {
		if row.ID != i || !row.OK || row.Epoch != 1 || row.Owned == 0 {
			t.Fatalf("shard row %d: %+v", i, row)
		}
	}

	// Dead shard: degraded, its row carries the error.
	flaky.dead.Store(true)
	for _, c := range rt.clients {
		c.Close()
	}
	code, body = get(t, rt, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard healthz status %d, want 503", code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("status %q, want degraded", h.Status)
	}
	if h.Shards[2].OK || h.Shards[2].Error == "" {
		t.Fatalf("dead shard row: %+v", h.Shards[2])
	}
	flaky.dead.Store(false)

	// Lagging shard: all live, but shard 2 misses the refresh until its
	// next status probe observes the shared store... here all shards
	// share one store, so instead verify the freshest view recovers.
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 4))
	code, body = get(t, rt, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("recovered healthz status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 2 {
		t.Fatalf("recovered healthz: %+v", h)
	}
}

// TestHealthzLaggingShardDegraded gives each shard its own store and
// refreshes all but one: the laggard must flip health to degraded even
// though every shard is alive.
func TestHealthzLaggingShardDegraded(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	stores := []*serve.Store{serve.NewStore(), serve.NewStore()}
	for _, st := range stores {
		publishRanks(t, st, g, tieRanks(n, 5))
	}
	rt := newRouter(newShards(t, g, stores), Options{})

	if code, body := get(t, rt, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy status %d: %s", code, body)
	}
	publishRanks(t, stores[0], g, tieRanks(n, 6))
	code, body := get(t, rt, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("lagging healthz status %d, want 503: %s", code, body)
	}
	var h api.HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Epoch != 1 {
		t.Fatalf("lagging healthz: %+v", h)
	}
	if !h.Shards[1].OK || h.Shards[1].Epoch != 1 || h.Shards[0].Epoch != 2 {
		t.Fatalf("lagging rows: %+v", h.Shards)
	}
}

// TestMisplacedShardsFailLoudly breaks the position contract two ways —
// two addresses of the shard list swapped, and one shard started with
// another shard count — and checks the router says so: /healthz and the
// /v1/stats rows mark the misplaced shards not OK, and a rank that
// reaches the wrong shard is a 500, never a 404 claiming the vertex is
// not in the graph.
func TestMisplacedShardsFailLoudly(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(n, 21))
	single := serve.NewServer(store, serve.ServerOptions{})
	servers := newShards(t, g, []*serve.Store{store, store, store})
	cluster := func(at []*ShardServer) *Router {
		clients := make([]*ShardClient, len(at))
		for i, s := range at {
			clients[i] = NewShardClient(i, fmt.Sprintf("pipe-%d", i), PipeDialer(s), time.Second)
		}
		return New(clients, Options{})
	}
	wantRows := func(rt *Router, bad ...int) {
		t.Helper()
		code, body := get(t, rt, "/healthz")
		var h api.HealthResponse
		if err := json.Unmarshal([]byte(body), &h); err != nil || code != http.StatusServiceUnavailable || h.Status != "degraded" {
			t.Fatalf("healthz: status %d body %s, want 503 degraded", code, body)
		}
		_, body = get(t, rt, "/v1/stats")
		var stats api.RouterStatsResponse
		if err := json.Unmarshal([]byte(body), &stats); err != nil {
			t.Fatal(err)
		}
		for _, rows := range [][]api.ShardStatus{h.Shards, stats.Shards} {
			for i, row := range rows {
				misplaced := slices.Contains(bad, i)
				if row.OK == misplaced || misplaced != (row.Error != "") {
					t.Fatalf("row %d: %+v, misplaced %v", i, row, misplaced)
				}
			}
		}
	}

	swapped := cluster([]*ShardServer{servers[1], servers[0], servers[2]})
	wantRows(swapped, 0, 1)
	// Owners 0, 1 and 0 (the last beyond the graph): each asks the other.
	for _, v := range []int{3, 4, n + (3-n%3)%3} {
		code, body := get(t, swapped, fmt.Sprintf("/v1/rank?vertex=%d", v))
		var env api.Error
		if err := json.Unmarshal([]byte(body), &env); err != nil || code != http.StatusInternalServerError || env.Code != api.CodeInternal {
			t.Fatalf("vertex %d through a swapped list: status %d body %s, want 500 internal", v, code, body)
		}
	}
	_, want := get(t, single, "/v1/rank?vertex=5")
	if code, body := get(t, swapped, "/v1/rank?vertex=5"); code != http.StatusOK || body != want {
		t.Fatalf("vertex 5 at its own shard: status %d body %s, want %s", code, body, want)
	}

	miscounted := cluster([]*ShardServer{servers[0], servers[1], NewShardServer(2, 4, servers[2].owned, store)})
	wantRows(miscounted, 2)
}

// TestMixedVersionsNameBothVersions pins how peers of another wire
// version fail: with version_mismatch naming both versions, never as a
// frame decode error. A shard that still speaks version 2 refuses the
// router's version, and that refusal is its row in /healthz and
// /v1/stats. A router of a later version may send a member this shard
// does not read; the shard still answers version_mismatch and keeps the
// connection.
func TestMixedVersionsNameBothVersions(t *testing.T) {
	const old = 2
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 5))
	current := NewShardServer(0, 2, Stride(g.NumVertices(), 2, 0), store)
	oldDial := func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		go jsonShard(t, c2, func(req jsonRequest) jsonResponse {
			return jsonResponse{V: old, Shard: 1, Code: api.CodeVersionMismatch,
				Err: fmt.Sprintf("shard speaks wire version %d, router sent %d", old, req.V)}
		})
		return c1, nil
	}
	rt := New([]*ShardClient{
		NewShardClient(0, "pipe-0", PipeDialer(current), time.Second),
		NewShardClient(1, "old-shard", oldDial, time.Second),
	}, Options{})

	code, body := get(t, rt, "/healthz")
	var h api.HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil || code != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("healthz: status %d body %s, want 503 degraded", code, body)
	}
	_, body = get(t, rt, "/v1/stats")
	var stats api.RouterStatsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]api.ShardStatus{h.Shards, stats.Shards} {
		if len(rows) != 2 || !rows[0].OK || rows[1].OK {
			t.Fatalf("rows %+v, want shard 0 OK and shard 1 not", rows)
		}
		msg := rows[1].Error
		for _, want := range []string{api.CodeVersionMismatch, fmt.Sprintf("version %d", old), fmt.Sprintf("sent %d", api.Version)} {
			if !strings.Contains(msg, want) {
				t.Fatalf("old shard's row error %q does not name %q", msg, want)
			}
		}
		if strings.Contains(msg, "frame decode") {
			t.Fatalf("old shard's row error %q is a decode error", msg)
		}
	}

	conn, err := PipeDialer(current)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frame frameBuf
	for _, payload := range []string{
		fmt.Sprintf(`{"v":%d,"op":"topk","k":5,"deadline":250}`, api.Version+1),
		fmt.Sprintf(`{"v":%d,"op":"status"}`, api.Version+1),
	} {
		wire := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		var resp response
		if _, err := frame.read(conn, &resp); err != nil {
			t.Fatalf("%s: %v", payload, err)
		}
		want := fmt.Sprintf("shard speaks wire version %d, router sent %d", api.Version, api.Version+1)
		if resp.Code != api.CodeVersionMismatch || resp.Err != want {
			t.Fatalf("%s: answered %+v, want %s", payload, resp, want)
		}
	}
	// A malformed frame of this version still ends the connection.
	payload := fmt.Sprintf(`{"v":%d,"op":"topk","k":5`, api.Version)
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)); err != nil {
		t.Fatal(err)
	}
	var resp response
	if _, err := frame.read(conn, &resp); err == nil {
		t.Fatalf("malformed frame of this version answered %+v", resp)
	}
	// A frame of another version whose member changed its JSON type does
	// not decode either: it ends the connection, unnamed, not answered
	// version_mismatch.
	conn, err = PipeDialer(current)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload = fmt.Sprintf(`{"v":%d,"op":"topk","k":"5"}`, api.Version+1)
	if _, err := conn.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.read(conn, &resp); !errors.Is(err, io.EOF) {
		t.Fatalf("%s: read %+v, %v; want the connection closed", payload, resp, err)
	}
}

// TestRouterErrorEnvelopes pins the router's status-code/envelope
// pairs to the shared api error vocabulary.
func TestRouterErrorEnvelopes(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 7))
	rt := newRouter(newShards(t, g, []*serve.Store{store, store}), Options{})
	empty := newRouter(newShards(t, g, []*serve.Store{serve.NewStore(), serve.NewStore()}), Options{})

	cases := []struct {
		name   string
		rt     *Router
		method string
		url    string
		status int
		code   string
	}{
		{"bad k", rt, http.MethodGet, "/v1/topk?k=zero", http.StatusBadRequest, api.CodeBadRequest},
		{"negative k", rt, http.MethodGet, "/v1/topk?k=-3", http.StatusBadRequest, api.CodeBadRequest},
		{"missing vertex", rt, http.MethodGet, "/v1/rank", http.StatusBadRequest, api.CodeBadRequest},
		{"bad vertex", rt, http.MethodGet, "/v1/rank?vertex=x", http.StatusBadRequest, api.CodeBadRequest},
		{"vertex out of range", rt, http.MethodGet, "/v1/rank?vertex=4000000", http.StatusNotFound, api.CodeNotFound},
		{"post topk", rt, http.MethodPost, "/v1/topk", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"compare unsupported", rt, http.MethodGet, "/v1/compare?engine=exact", http.StatusNotImplemented, api.CodeUnsupported},
		{"no snapshot topk", empty, http.MethodGet, "/v1/topk", http.StatusServiceUnavailable, api.CodeUnavailable},
		{"no snapshot rank", empty, http.MethodGet, "/v1/rank?vertex=1", http.StatusServiceUnavailable, api.CodeUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.rt.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.url, nil))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.status, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("content type %q", ct)
			}
			var env api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope decode: %v (body %s)", err, rec.Body.String())
			}
			if env.Code != tc.code || env.Message == "" {
				t.Fatalf("envelope %+v, want code %q", env, tc.code)
			}
		})
	}
}

// TestRouterStats checks the stats body: the shards' epoch, engine and
// seed and a row per shard, nothing else. The wire traffic is measured
// on the side.
func TestRouterStats(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 8))
	rt := newRouter(newShards(t, g, []*serve.Store{store, store, store}), Options{})

	for i := 0; i < 5; i++ {
		if code, _ := get(t, rt, "/v1/topk?k=10"); code != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	code, body := get(t, rt, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &members); err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(members)), []string{"engine", "epoch", "seed", "shards"}; !slices.Equal(got, want) {
		t.Errorf("stats members %q, want %q", got, want)
	}
	var stats api.RouterStatsResponse
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&stats); err != nil {
		t.Fatalf("stats body %s: %v", body, err)
	}
	snap := store.Current()
	if stats.Epoch != 1 || stats.Engine != snap.Engine || stats.Seed != snap.Seed || len(stats.Shards) != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	net := rt.NetworkStats()
	if net.Queries != 6 { // 5 topk + this stats call
		t.Fatalf("queries %d, want 6", net.Queries)
	}
	if net.BytesSent == 0 || net.BytesRecv == 0 || net.BytesPerQuery <= 0 {
		t.Fatalf("network stats not measured: %+v", net)
	}
	total := net.BytesSent + net.BytesRecv
	if got := net.BytesPerQuery * float64(net.Queries); got < float64(total)*0.99 || got > float64(total)*1.01 {
		t.Fatalf("bytesPerQuery inconsistent: %v * %d vs %d", net.BytesPerQuery, net.Queries, total)
	}
}

// TestServeOverTCP runs shards and router on real TCP listeners and
// checks a round trip, byte metering, and graceful shutdown.
func TestServeOverTCP(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 9))
	servers := newShards(t, g, []*serve.Store{store, store})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clients := make([]*ShardClient, len(servers))
	for i, srv := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ctx, ln) //nolint:errcheck
		clients[i] = NewShardClient(i, ln.Addr().String(), DialTCP(ln.Addr().String()), time.Second)
	}
	rt := New(clients, Options{})

	single := serve.NewServer(store, serve.ServerOptions{})
	_, want := get(t, single, "/v1/topk?k=30")
	code, got := get(t, rt, "/v1/topk?k=30")
	if code != http.StatusOK || got != want {
		t.Fatalf("TCP round trip: status %d, bodies equal %v", code, got == want)
	}
	ns := rt.NetworkStats()
	if ns.BytesSent == 0 || ns.BytesRecv == 0 {
		t.Fatalf("no bytes metered over TCP: %+v", ns)
	}
}
