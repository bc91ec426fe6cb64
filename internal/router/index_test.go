package router

import (
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// topKRequest asks srv for its partial top-k the way a connection
// does, minus the codec.
func topKRequest(srv *ShardServer, k int, epoch uint64) response {
	return srv.handle(&request{V: api.Version, Op: opTopK, K: k, Epoch: epoch})
}

// TestShardIndexAnswersPrefixes pins the per-epoch index against
// topk.Subset on both sides of MaxK, for the current epoch and for the
// previous one pinned after a publish, and that neither a pinned query
// nor a /metrics scrape disturbs the retention ring.
func TestShardIndexAnswersPrefixes(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	store := serve.NewStore()
	old := publishRanks(t, store, g, tieRanks(n, 21))
	srv := newShards(t, g, []*serve.Store{store, store})[0]
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	owned := len(srv.owned)

	check := func(snap *serve.Snapshot, pin uint64) {
		t.Helper()
		for _, k := range []int{1, 7, snap.MaxK - 1, snap.MaxK, snap.MaxK + 1, owned - 1, owned, owned + 1, n + 5} {
			resp := topKRequest(srv, k, pin)
			if resp.Code != "" || resp.Epoch != snap.Epoch {
				t.Fatalf("k=%d pin=%d: answered %+v, want epoch %d", k, pin, resp, snap.Epoch)
			}
			if want := topk.Subset(snap.Ranks, srv.owned, k); !reflect.DeepEqual(resp.Entries, want) {
				t.Fatalf("k=%d pin=%d: partial top-k diverged from topk.Subset", k, pin)
			}
		}
	}
	check(old, 0)
	index := srv.cur.top
	if len(index) != old.MaxK {
		t.Fatalf("index holds %d entries, want MaxK=%d", len(index), old.MaxK)
	}
	if resp := topKRequest(srv, 9, 0); &resp.Entries[0] != &index[0] {
		t.Fatal("k <= MaxK selected again instead of slicing the index")
	}

	// The store moves on; a scrape must not rotate the ring.
	fresh := publishRanks(t, store, g, tieRanks(n, 22))
	if code, body := get(t, reg.Handler(), "/metrics"); code != http.StatusOK || body == "" {
		t.Fatalf("scrape status %d", code)
	}
	if srv.cur.snap != old || srv.prev.snap != nil {
		t.Fatal("a /metrics scrape called track()")
	}

	check(fresh, 0)
	if srv.prev.snap != old || &srv.prev.top[0] != &index[0] {
		t.Fatal("the previous epoch did not keep the index it was built with")
	}
	check(old, old.Epoch)
	if resp := topKRequest(srv, 9, old.Epoch); &resp.Entries[0] != &index[0] {
		t.Fatal("pinned previous-epoch query was not answered from the retained index")
	}
	if resp := topKRequest(srv, 3, old.Epoch+7); resp.Code != api.CodeNoSnapshot {
		t.Fatalf("unknown epoch answered %+v", resp)
	}

	// An index that already holds the whole partition serves any k.
	wide, err := serve.FromRanks(g, serve.EngineFrogWild, 11, tieRanks(n, 23), n)
	if err != nil {
		t.Fatal(err)
	}
	check(store.Publish(wide), 0)
	if resp := topKRequest(srv, n+5, 0); len(srv.cur.top) != owned || &resp.Entries[0] != &srv.cur.top[0] {
		t.Fatalf("index of %d entries over %d owned vertices selected again for k > MaxK", len(srv.cur.top), owned)
	}
}

// TestShardIndexUnderSwaps runs top-k RPCs, direct ring reads and
// /metrics scrapes against one shard while its store publishes
// continuously. Run under -race -count=10. Every answer must be the
// exact partial top-k of the epoch it names, and every snapshot must be
// indexed exactly once: all readers of one snapshot share one array.
func TestShardIndexUnderSwaps(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	store := serve.NewStore()
	published := map[uint64]*serve.Snapshot{1: publishRanks(t, store, g, tieRanks(n, 300))}
	srv := newShards(t, g, []*serve.Store{store, store, store})[1]
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	client := NewShardClient(1, "pipe", PipeDialer(srv), 2*time.Second)
	defer client.Close()

	stop := make(chan struct{})
	var background sync.WaitGroup
	background.Add(2)
	go func() {
		defer background.Done()
		for seed := int64(301); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := serve.FromRanks(g, serve.EngineFrogWild, 11, tieRanks(n, seed), 50)
			if err != nil {
				t.Error(err)
				return
			}
			// Only this goroutine writes the map; readers wait for it.
			published[store.Publish(snap).Epoch] = snap
		}
	}()
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if code, _ := get(t, reg.Handler(), "/metrics"); code != http.StatusOK {
				t.Errorf("scrape status %d", code)
				return
			}
		}
	}()

	type answer struct {
		k    int
		resp response
	}
	const workers, rounds = 6, 60
	answers := make([][]answer, workers)
	var mu sync.Mutex
	indexOf := make(map[*serve.Snapshot]*topk.Entry)
	var queriers sync.WaitGroup
	for w := 0; w < workers; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			for i := 0; i < rounds; i++ {
				k := 1 + (w*rounds+i)%70 // both sides of MaxK=50
				resp, err := client.call(&request{V: api.Version, Op: opTopK, K: k})
				if err != nil {
					t.Errorf("rpc: %v", err)
					return
				}
				answers[w] = append(answers[w], answer{k, resp})

				idx := srv.snapshotFor(0)
				mu.Lock()
				if first, ok := indexOf[idx.snap]; !ok {
					indexOf[idx.snap] = &idx.top[0]
				} else if first != &idx.top[0] {
					t.Errorf("epoch %d was indexed twice", idx.snap.Epoch)
				}
				mu.Unlock()
			}
		}(w)
	}
	queriers.Wait()
	close(stop)
	background.Wait()

	epochs := make(map[uint64]bool)
	for _, perWorker := range answers {
		for _, a := range perWorker {
			snap := published[a.resp.Epoch]
			if a.resp.Code != "" || snap == nil {
				t.Fatalf("k=%d answered %+v", a.k, a.resp)
			}
			if want := topk.Subset(snap.Ranks, srv.owned, a.k); !reflect.DeepEqual(a.resp.Entries, want) {
				t.Fatalf("k=%d epoch %d: answer is not that epoch's partial top-k", a.k, a.resp.Epoch)
			}
			epochs[a.resp.Epoch] = true
		}
	}
	for snap, first := range indexOf {
		if want := topk.Subset(snap.Ranks, srv.owned, snap.MaxK); *first != want[0] {
			t.Fatalf("epoch %d served another epoch's index", snap.Epoch)
		}
	}
	t.Logf("%d answers over %d epochs, %d snapshots indexed, %d published", workers*rounds, len(epochs), len(indexOf), len(published))
}
