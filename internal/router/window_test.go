package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// getStats asks rt for /v1/stats and decodes the body.
func getStats(t *testing.T, rt *Router) api.RouterStatsResponse {
	t.Helper()
	code, body := get(t, rt, "/v1/stats")
	var stats api.RouterStatsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil || code != http.StatusOK {
		t.Fatalf("stats: status %d body %s (%v)", code, body, err)
	}
	return stats
}

// fannedOut checks that the shards answered exactly one RPC each since
// before.
func fannedOut(t *testing.T, servers []*ShardServer, what string, before []uint64) {
	t.Helper()
	for i, got := range perShard(servers) {
		if got != before[i]+1 {
			t.Fatalf("%s: shard %d answered %d RPCs, want a fan-out of one each", what, i, got-before[i])
		}
	}
}

// TestStatsServedFromProbeWithinWindow pins the stats view: up to the
// last instant of the window after a probe, /v1/stats asks no shard and
// repeats the probe's body, and /metrics still counts it; one
// nanosecond later it fans out again.
func TestStatsServedFromProbeWithinWindow(t *testing.T) {
	rt, servers, _, _ := flakyCluster(t, 4, 71)
	clock := freeze(rt)
	if code, body := get(t, rt, "/v1/topk?k=10"); code != http.StatusOK {
		t.Fatalf("topk status %d: %s", code, body)
	}

	before := perShard(servers)
	first := getStats(t, rt)
	fannedOut(t, servers, "first stats", before)
	if first.Epoch != 1 || len(first.Shards) != 4 {
		t.Fatalf("first stats: %+v", first)
	}

	clock.advance(freshWindow)
	asked := shardQueries(servers)
	queries := obs.FamilySum(scrape(t, rt), "router_requests_total")
	again := getStats(t, rt)
	if got := shardQueries(servers) - asked; got != 0 {
		t.Fatalf("stats inside the window made %d shard RPCs", got)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("stats inside the window is not the probe's view:\n got %+v\nwant %+v", again, first)
	}
	if got := obs.FamilySum(scrape(t, rt), "router_requests_total"); got != queries+1 {
		t.Fatalf("router_requests_total went %v -> %v over one stats request", queries, got)
	}

	clock.advance(time.Nanosecond)
	before = perShard(servers)
	getStats(t, rt)
	fannedOut(t, servers, "stats one nanosecond past the window", before)
}

// TestStatsViewEndsOnContraryReply: a failed owner RPC, or an owner
// reply at another epoch than the top index's, ends the stats view at
// once — the next stats fans out with the clock standing still — and a
// probe whose own replies disagree with the index is not kept.
func TestStatsViewEndsOnContraryReply(t *testing.T) {
	const shards = 4
	for _, contrary := range []string{"failed", "epoch"} {
		t.Run(contrary, func(t *testing.T) {
			rt, servers, dials, store := flakyCluster(t, shards, 72)
			g := store.Current().Graph
			freeze(rt)
			if code, body := get(t, rt, "/v1/topk?k=10"); code != http.StatusOK {
				t.Fatalf("topk status %d: %s", code, body)
			}
			getStats(t, rt)

			// The router has never asked for this vertex's rank, so the
			// copy cannot answer it and its owner is asked.
			const v = 17
			url := fmt.Sprintf("/v1/rank?vertex=%d", v)
			if contrary == "failed" {
				dials[v%shards].dead.Store(true)
				rt.clients[v%shards].Close()
				if code, body := get(t, rt, url); code != http.StatusServiceUnavailable {
					t.Fatalf("rank at a dead owner: status %d body %s, want 503", code, body)
				}
				dials[v%shards].dead.Store(false)
			} else {
				publishRanks(t, store, g, tieRanks(g.NumVertices(), 73))
				if code, body := get(t, rt, url); code != http.StatusOK {
					t.Fatalf("rank status %d: %s", code, body)
				}
			}

			before := perShard(servers)
			stats := getStats(t, rt)
			fannedOut(t, servers, "stats after a "+contrary+" owner reply", before)
			if contrary == "epoch" {
				if stats.Epoch != 2 {
					t.Fatalf("stats after an epoch-2 owner reply: epoch %d, want 2", stats.Epoch)
				}
				// That probe saw epoch 2 while the index is at 1: it is
				// not kept either.
				before = perShard(servers)
				getStats(t, rt)
				fannedOut(t, servers, "stats after a probe that contradicted the index", before)
			}
		})
	}
}

// TestStatsOnlyTrafficFansOutOnce: with no top index, a probe in which
// every shard agrees stands on its own, so stats-only traffic inside
// the window costs one fan-out, and an owner reply at the probe's epoch
// does not end it; an owner reply at a newer epoch, or a failed one,
// still does.
func TestStatsOnlyTrafficFansOutOnce(t *testing.T) {
	const shards = 4
	for _, contrary := range []string{"failed", "epoch"} {
		t.Run(contrary, func(t *testing.T) {
			rt, servers, dials, store := flakyCluster(t, shards, 77)
			g := store.Current().Graph
			clock := freeze(rt)
			// statsFromView asks for stats n times across the window and
			// checks that no shard was asked.
			statsFromView := func(what string, n int) {
				t.Helper()
				asked := shardQueries(servers)
				for range n {
					clock.advance(freshWindow / time.Duration(n))
					getStats(t, rt)
				}
				if got := shardQueries(servers) - asked; got != 0 {
					t.Fatalf("%s: %d stats inside the window made %d shard RPCs, want none", what, n, got)
				}
			}

			before := perShard(servers)
			if stats := getStats(t, rt); stats.Epoch != 1 {
				t.Fatalf("first stats: epoch %d, want 1", stats.Epoch)
			}
			fannedOut(t, servers, "first stats", before)
			statsFromView("stats-only traffic", 5)

			clock.advance(time.Nanosecond)
			before = perShard(servers)
			getStats(t, rt)
			fannedOut(t, servers, "stats past the window", before)
			const v, u = 17, 22
			if code, body := get(t, rt, fmt.Sprintf("/v1/rank?vertex=%d", v)); code != http.StatusOK {
				t.Fatalf("rank status %d: %s", code, body)
			}
			statsFromView("stats after an owner reply at the probe's epoch", 1)

			clock.advance(time.Nanosecond)
			before = perShard(servers)
			getStats(t, rt)
			fannedOut(t, servers, "stats past the window", before)
			url := fmt.Sprintf("/v1/rank?vertex=%d", u)
			if contrary == "failed" {
				dials[u%shards].dead.Store(true)
				rt.clients[u%shards].Close()
				if code, body := get(t, rt, url); code != http.StatusServiceUnavailable {
					t.Fatalf("rank at a dead owner: status %d body %s, want 503", code, body)
				}
				dials[u%shards].dead.Store(false)
			} else {
				publishRanks(t, store, g, tieRanks(g.NumVertices(), 78))
				if code, body := get(t, rt, url); code != http.StatusOK {
					t.Fatalf("rank status %d: %s", code, body)
				}
			}
			before = perShard(servers)
			stats := getStats(t, rt)
			fannedOut(t, servers, "stats after a "+contrary+" owner reply", before)
			if want := map[string]uint64{"failed": 1, "epoch": 2}[contrary]; stats.Epoch != want {
				t.Fatalf("stats after a %s owner reply: epoch %d, want %d", contrary, stats.Epoch, want)
			}
			statsFromView("stats-only traffic after the view ended", 3)
		})
	}
}

// TestHealthzAlwaysFansOut pins /healthz as the live view orchestrators
// read: every call asks every shard, inside the window and right after a
// stats call that the kept view answered.
func TestHealthzAlwaysFansOut(t *testing.T) {
	rt, servers, _, _ := flakyCluster(t, 4, 74)
	freeze(rt)
	if code, body := get(t, rt, "/v1/topk?k=10"); code != http.StatusOK {
		t.Fatalf("topk status %d: %s", code, body)
	}
	getStats(t, rt)
	for i := range 3 {
		asked := shardQueries(servers)
		getStats(t, rt)
		if got := shardQueries(servers) - asked; got != 0 {
			t.Fatalf("stats %d inside the window made %d shard RPCs", i, got)
		}
		before := perShard(servers)
		if code, body := get(t, rt, "/healthz"); code != http.StatusOK {
			t.Fatalf("healthz %d: status %d body %s", i, code, body)
		}
		fannedOut(t, servers, fmt.Sprintf("healthz %d", i), before)
	}
}

// TestRankServedFromCopyWithinWindow pins rank against the fresh index:
// a vertex whose last exact rank is at the index's epoch is answered
// byte-identical to the single node with no RPC; once the window
// expires, a contrary reply (another epoch, a failed call) ends it, or
// the vertex's entry is at another epoch than the index, the rank makes
// exactly one RPC, to its owner. A dead owner goes unnoticed by a rank
// the copy answers.
func TestRankServedFromCopyWithinWindow(t *testing.T) {
	const shards = 4
	rt, servers, dials, store := flakyCluster(t, shards, 75)
	g := store.Current().Graph
	n := g.NumVertices()
	single := serve.NewServer(store, serve.ServerOptions{})
	clock := freeze(rt)

	// v and u share an owner; w has another one.
	const v, u, w = 17, 33, 22
	const owner = v % shards
	// rank asks for vertex x and checks the body against the single
	// node's and which shards answered.
	rank := func(what string, x int, rpc bool) {
		t.Helper()
		url := fmt.Sprintf("/v1/rank?vertex=%d", x)
		_, want := get(t, single, url)
		before := perShard(servers)
		if code, body := get(t, rt, url); code != http.StatusOK || body != want {
			t.Fatalf("%s: status %d body %s, want %s", what, code, body, want)
		}
		if rpc {
			oneRPC(t, servers, what, before, x%shards)
		} else if got := perShard(servers); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: shards answered %v RPCs since %v, want none", what, got, before)
		}
	}
	topk := func(epoch uint64) {
		t.Helper()
		if resp := topKBody(t, second(get(t, rt, "/v1/topk?k=10"))); resp.Epoch != epoch || resp.Degraded {
			t.Fatalf("topk: epoch %d degraded %v, want exact epoch %d", resp.Epoch, resp.Degraded, epoch)
		}
	}

	rank("before any top-k", v, true)
	topk(1)
	rank("inside the window", v, false)
	rank("inside the window again", v, false)
	if hits, routed := rt.rankIndexHits.Value(), rt.rankRouted.Value(); hits != 2 || routed != 1 {
		t.Fatalf("rank index hits %d, routed %d, want 2 and 1", hits, routed)
	}

	clock.advance(freshWindow + time.Nanosecond)
	rank("one nanosecond past the window", v, true)
	rank("past the window, asked again", v, true)

	// A reply at epoch 2, to a rank of another vertex, ends the window at
	// once, so v's rank goes to its owner.
	topk(1)
	rank("inside the refetched window", v, false)
	rank("first sight of u", u, true)
	publishRanks(t, store, g, tieRanks(n, 76))
	rank("w at epoch 2", w, true)
	rank("after a reply at epoch 2", v, true)

	// The index confirmed at epoch 2 answers v, whose entry is at 2, but
	// not u, whose entry is at 1.
	topk(2)
	rank("u's epoch-1 entry under the epoch-2 index", u, true)
	rank("v inside the epoch-2 window", v, false)

	// A dead owner goes unnoticed by the copy until a failed call to it
	// (a vertex the copy does not hold) ends the window; then v's rank
	// reaches the dead owner and is served degraded.
	dials[owner].dead.Store(true)
	rt.clients[owner].Close()
	rank("dead owner inside the window", v, false)
	if code, body := get(t, rt, fmt.Sprintf("/v1/rank?vertex=%d", owner+shards*100)); code != http.StatusServiceUnavailable {
		t.Fatalf("unheld vertex at a dead owner: status %d body %s, want 503", code, body)
	}
	code, body := get(t, rt, fmt.Sprintf("/v1/rank?vertex=%d", v))
	var got api.RankResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil || code != http.StatusOK || !got.Degraded || got.Epoch != 2 {
		t.Fatalf("rank after a failed owner call: status %d body %s, want the epoch-2 entry degraded", code, body)
	}
	dials[owner].dead.Store(false)
	rank("revived owner", v, true)
}
