package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// TestRouterIndexServesPrefixesWithoutRPC pins the router's top index
// against the single node: after one query that fetched the whole graph,
// every k — on both sides of the shards' MaxK, of a shard's owned count
// and of the graph — is cut from the index byte-identical to the
// single-node body, ties included, and no shard is asked anything.
func TestRouterIndexServesPrefixesWithoutRPC(t *testing.T) {
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
			servers := newShards(t, g, stores)
			rt := newRouter(servers, Options{})
			freeze(rt)

			if code, body := get(t, rt, fmt.Sprintf("/v1/topk?k=%d", n+9)); code != http.StatusOK {
				t.Fatalf("fetch status %d: %s", code, body)
			}
			asked := shardQueries(servers)
			ks := []int{1, 3, 10, 50, 51, 63, 500, n - 1, n, n + 9}
			for _, k := range ks {
				url := fmt.Sprintf("/v1/topk?k=%d", k)
				sc, sb := get(t, single, url)
				rc, rb := get(t, rt, url)
				if sc != http.StatusOK || rc != http.StatusOK {
					t.Fatalf("k=%d: status single=%d router=%d", k, sc, rc)
				}
				if sb != rb {
					t.Fatalf("k=%d: index prefix diverged from single-node\nsingle: %.200s\nrouter: %.200s", k, sb, rb)
				}
			}
			if got := shardQueries(servers); got != asked {
				t.Fatalf("covered queries made %d shard RPCs", got-asked)
			}
			if hits := rt.indexHits.Value(); hits != uint64(len(ks)) || rt.refetches.Value() != 1 {
				t.Fatalf("index hits = %d, refetches = %d, want %d and 1", hits, rt.refetches.Value(), len(ks))
			}
		})
	}
}

// TestRouterIndexNeverShrinks asks for k=50, then k=3, then moves the
// cluster to a new epoch: the refetch a small k triggers still fetches
// 50, so the next k=50 (or a degraded fallback) is covered.
func TestRouterIndexNeverShrinks(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(n, 31))
	single := serve.NewServer(store, serve.ServerOptions{})
	servers := newShards(t, g, []*serve.Store{store, store, store, store})
	rt := newRouter(servers, Options{})
	clock := freeze(rt)

	for _, k := range []int{50, 3} {
		if code, body := get(t, rt, fmt.Sprintf("/v1/topk?k=%d", k)); code != http.StatusOK {
			t.Fatalf("k=%d status %d: %s", k, code, body)
		}
	}
	if rt.refetches.Value() != 1 || rt.top.k != 50 {
		t.Fatalf("after k=50 then k=3: %d refetches, index k=%d", rt.refetches.Value(), rt.top.k)
	}

	publishRanks(t, store, g, tieRanks(n, 32))
	clock.advance(freshWindow + time.Nanosecond)
	_, want := get(t, single, "/v1/topk?k=3")
	if _, body := get(t, rt, "/v1/topk?k=3"); body != want {
		t.Fatalf("k=3 after the epoch change:\n got %s\nwant %s", body, want)
	}
	if rt.refetches.Value() != 2 || rt.top.k != 50 || rt.top.bodies.Len() != 50 || rt.top.epoch != 2 {
		t.Fatalf("refetch for k=3: %d refetches, index k=%d with %d entries at epoch %d, want 2, 50, 50, 2",
			rt.refetches.Value(), rt.top.k, rt.top.bodies.Len(), rt.top.epoch)
	}
	asked := shardQueries(servers)
	_, want = get(t, single, "/v1/topk?k=50")
	if _, body := get(t, rt, "/v1/topk?k=50"); body != want {
		t.Fatal("k=50 after the refetch is not the single-node epoch-2 body")
	}
	if got := shardQueries(servers); got != asked {
		t.Fatalf("k=50 after a refetch triggered by k=3 made %d shard RPCs", got-asked)
	}
}

// TestRouterIndexBounded checks a k beyond maxCachedK is answered in
// full while the index keeps only its first maxCachedK entries.
func TestRouterIndexBounded(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(n, 33))
	single := serve.NewServer(store, serve.ServerOptions{})
	servers := newShards(t, g, []*serve.Store{store, store})
	rt := newRouter(servers, Options{})
	freeze(rt)

	// The test graph is smaller than the bound, so a k past it returns
	// the whole graph and the index then covers everything.
	url := fmt.Sprintf("/v1/topk?k=%d", maxCachedK+1)
	_, want := get(t, single, url)
	if code, body := get(t, rt, url); code != http.StatusOK || body != want {
		t.Fatalf("k past the bound: status %d, single-node body %v", code, body == want)
	}
	if rt.top.k != maxCachedK || rt.top.bodies.Len() != n || !rt.top.covers(maxCachedK+1) {
		t.Fatalf("index k=%d with %d entries", rt.top.k, rt.top.bodies.Len())
	}

	// An index cut at the bound covers nothing beyond it.
	bodies, err := api.NewTopKIndex(1, serve.EngineFrogWild, 11, make([]topk.Entry, maxCachedK))
	if err != nil {
		t.Fatal(err)
	}
	cut := topIndex{k: maxCachedK, bodies: bodies}
	if cut.covers(maxCachedK+1) || !cut.covers(maxCachedK) {
		t.Fatal("an index holding exactly maxCachedK entries must cover k <= maxCachedK only")
	}
}

// flakyCluster is a pipe cluster over one shared store in which every
// shard's transport can be killed.
func flakyCluster(t *testing.T, shards int, src int64) (*Router, []*ShardServer, []*flakyDial, *serve.Store) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), src))
	stores := make([]*serve.Store, shards)
	for i := range stores {
		stores[i] = store
	}
	servers := newShards(t, g, stores)
	dials := make([]*flakyDial, shards)
	clients := make([]*ShardClient, shards)
	for i, srv := range servers {
		dials[i] = &flakyDial{inner: PipeDialer(srv)}
		clients[i] = NewShardClient(i, fmt.Sprintf("pipe-%d", i), dials[i].dial, time.Second)
	}
	return New(clients, Options{}), servers, dials, store
}

// perShard returns each shard's answered-RPC count.
func perShard(servers []*ShardServer) []uint64 {
	out := make([]uint64, len(servers))
	for i, s := range servers {
		out[i] = s.Queries()
	}
	return out
}

// oneRPC checks that only shard to answered, exactly once, since before.
func oneRPC(t *testing.T, servers []*ShardServer, what string, before []uint64, to int) {
	t.Helper()
	for i, got := range perShard(servers) {
		wantN := before[i]
		if i == to {
			wantN++
		}
		if got != wantN {
			t.Fatalf("%s: shard %d answered %d RPCs, want only shard %d asked once", what, i, got-before[i], to)
		}
	}
}

// TestRankRoutesToOwner pins owner routing: every /v1/rank of a vertex
// the router's copy does not answer, the first included, makes exactly
// one RPC, to shard v % shards; a vertex beyond the graph is a 404 on
// its owner's word alone; a dead owner degrades to the vertex's last
// exact body; and what an owner-routed reply says about the cluster — a
// new epoch, a failure — ends the top index's freshness at once.
func TestRankRoutesToOwner(t *testing.T) {
	const shards = 4
	rt, servers, dials, store := flakyCluster(t, shards, 51)
	g := store.Current().Graph
	n := g.NumVertices()
	single := serve.NewServer(store, serve.ServerOptions{})
	clock := freeze(rt)

	const v = 17
	const owner = v % shards
	if !servers[owner].owns(v) {
		t.Fatalf("shard %d does not own vertex %d", owner, v)
	}
	url := fmt.Sprintf("/v1/rank?vertex=%d", v)
	_, want := get(t, single, url)

	for i, what := range []string{"first rank", "second rank"} {
		before := perShard(servers)
		if code, body := get(t, rt, url); code != http.StatusOK || body != want {
			t.Fatalf("%s: status %d body %s, want %s", what, code, body, want)
		}
		oneRPC(t, servers, what, before, owner)
		if got := rt.rankRouted.Value(); got != uint64(i+1) {
			t.Fatalf("%s: rank routed = %d, want %d", what, got, i+1)
		}
	}

	// A vertex beyond the graph: 404 from its owner alone, every time.
	for _, unknown := range []int{n, n + 5} {
		before := perShard(servers)
		code, body := get(t, rt, fmt.Sprintf("/v1/rank?vertex=%d", unknown))
		var env api.Error
		if err := json.Unmarshal([]byte(body), &env); err != nil || code != http.StatusNotFound || env.Code != api.CodeNotFound {
			t.Fatalf("unknown vertex %d: status %d body %s", unknown, code, body)
		}
		oneRPC(t, servers, fmt.Sprintf("unknown vertex %d", unknown), before, unknown%shards)
	}
	if rt.rankRouted.Value() != 2 {
		t.Fatalf("a 404 counted as routed: %d", rt.rankRouted.Value())
	}

	// Inside the window with no contrary reply, top-k stays at the
	// index's epoch 1, and so would the rank, answered from the copy: the
	// rank reaches its owner, which says epoch 2, once the window ends.
	if code, _ := get(t, rt, "/v1/topk?k=10"); code != http.StatusOK {
		t.Fatal("building the index failed")
	}
	publishRanks(t, store, g, tieRanks(n, 52))
	if resp := topKBody(t, second(get(t, rt, "/v1/topk?k=10"))); resp.Epoch != 1 {
		t.Fatalf("inside the window with no contrary reply: epoch %d, want the index's 1", resp.Epoch)
	}
	clock.advance(freshWindow + time.Nanosecond)
	_, want = get(t, single, url)
	if _, body := get(t, rt, url); body != want {
		t.Fatalf("routed rank at epoch 2: %s, want %s", body, want)
	}
	if rt.rankRouted.Value() != 3 {
		t.Fatalf("rank routed = %d, want 3", rt.rankRouted.Value())
	}
	asked := shardQueries(servers)
	_, want10 := get(t, single, "/v1/topk?k=10")
	if _, body := get(t, rt, "/v1/topk?k=10"); body != want10 {
		t.Fatalf("top-k after rank showed epoch 2:\n got %s\nwant %s", body, want10)
	}
	if got := shardQueries(servers) - asked; got != shards {
		t.Fatalf("top-k after a contrary rank reply made %d RPCs, want a fan-out of %d", got, shards)
	}

	// Dead owner: once the window ends, the vertex's last exact body,
	// degraded — and the next top-k goes to the shards, where it finds
	// the cluster incomplete and degrades too.
	dials[owner].dead.Store(true)
	for _, c := range rt.clients {
		c.Close()
	}
	if resp := topKBody(t, second(get(t, rt, "/v1/topk?k=10"))); resp.Degraded {
		t.Fatal("inside the window with no failed call seen, top-k must not be degraded")
	}
	clock.advance(freshWindow + time.Nanosecond)
	code, body := get(t, rt, url)
	var rank api.RankResponse
	if err := json.Unmarshal([]byte(body), &rank); err != nil || code != http.StatusOK {
		t.Fatalf("dead owner: status %d body %s", code, body)
	}
	var exact api.RankResponse
	if err := json.Unmarshal([]byte(want), &exact); err != nil {
		t.Fatal(err)
	}
	exact.Degraded = true
	if rank != exact {
		t.Fatalf("dead owner: %+v, want the last exact body degraded %+v", rank, exact)
	}
	if resp := topKBody(t, second(get(t, rt, "/v1/topk?k=10"))); !resp.Degraded || resp.Epoch != 2 {
		t.Fatalf("top-k after a failed owner call: %+v, want the epoch-2 index degraded", resp)
	}
	if rt.Degraded() != 2 {
		t.Fatalf("degraded = %d, want 2", rt.Degraded())
	}

	dials[owner].dead.Store(false)
	if _, body := get(t, rt, url); body != want {
		t.Fatalf("revived owner: %s, want %s", body, want)
	}
}

// second drops the status of a get.
func second(_ int, body string) string { return body }

// TestRankEntryRefreshedAtCap fills the rank entries to their cap: a
// vertex already kept must still be refreshed (its degraded fallback
// may not fall epochs behind), a new vertex is not added.
func TestRankEntryRefreshedAtCap(t *testing.T) {
	rt, _, _, store := flakyCluster(t, 2, 61)
	g := store.Current().Graph
	n := g.NumVertices()
	if code, _ := get(t, rt, "/v1/rank?vertex=3"); code != http.StatusOK {
		t.Fatal("rank failed")
	}
	for i := 0; len(rt.lastRank) < maxCachedRank; i++ {
		rt.lastRank[uint32(1<<20+i)] = api.RankResponse{}
	}
	publishRanks(t, store, g, tieRanks(n, 62))
	for _, v := range []int{3, 4} {
		if code, body := get(t, rt, fmt.Sprintf("/v1/rank?vertex=%d", v)); code != http.StatusOK {
			t.Fatalf("vertex %d: status %d: %s", v, code, body)
		}
	}
	if got := rt.lastRank[3].Epoch; got != 2 {
		t.Fatalf("kept vertex was not refreshed at the cap: entry at epoch %d, want 2", got)
	}
	if _, kept := rt.lastRank[4]; kept || len(rt.lastRank) != maxCachedRank {
		t.Fatalf("a new vertex was added past the cap: %d entries", len(rt.lastRank))
	}
}
