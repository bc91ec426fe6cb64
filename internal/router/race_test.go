package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
)

// TestRouterFanoutUnderSnapshotSwaps hammers the router's top-k, rank
// and stats from many goroutines while every shard's store keeps
// publishing new snapshots mid-query. Run under -race. Every response
// must be either a healthy exact answer at some single epoch or an
// explicit degraded/unavailable one — never a malformed body or a
// cross-epoch merge.
func TestRouterFanoutUnderSnapshotSwaps(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	const shards = 4
	stores := make([]*serve.Store, shards)
	for i := range stores {
		stores[i] = serve.NewStore()
		publishRanks(t, stores[i], g, tieRanks(n, 100))
	}
	rt := newRouter(newShards(t, g, stores), Options{Timeout: 2 * time.Second})

	stop := make(chan struct{})
	var publishers sync.WaitGroup
	// One publisher per shard, swapping snapshots as fast as it can:
	// shards constantly straddle refreshes, so queries race the
	// epoch-fallback path and the cur/prev retention ring.
	for i := range stores {
		publishers.Add(1)
		go func(i int) {
			defer publishers.Done()
			for seed := int64(0); ; seed++ {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := serve.FromRanks(g, serve.EngineFrogWild, 11, tieRanks(n, 100+seed), 50)
				if err != nil {
					t.Error(err)
					return
				}
				stores[i].Publish(snap)
			}
		}(i)
	}

	var queriers sync.WaitGroup
	for w := 0; w < 8; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			for i := 0; i < 40; i++ {
				url := fmt.Sprintf("/v1/topk?k=%d", 5+(i%3)*10)
				switch {
				case i%4 == 3:
					url = fmt.Sprintf("/v1/rank?vertex=%d", (w*97+i)%n)
				case i%8 == 1:
					url = "/v1/stats"
				}
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				switch rec.Code {
				case http.StatusOK:
					// Bodies must always decode; a topk body must carry
					// one concrete epoch.
					var resp api.TopKResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("malformed 200 body: %v", err)
					}
				case http.StatusServiceUnavailable:
					var env api.Error
					if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code != api.CodeUnavailable {
						t.Errorf("malformed 503 body %q: %v", rec.Body.String(), err)
					}
				case http.StatusNotFound:
					// rank for a vertex a racing shard no longer owns a
					// snapshot row for
				default:
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	queriers.Wait()
	close(stop)
	publishers.Wait()

	// Sanity: with snapshots swapping constantly, at least one query
	// should have crossed an epoch boundary and taken the fallback.
	t.Logf("queries=%d epochFallbacks=%d degraded=%d retries=%d",
		rt.Queries(), rt.EpochFallbacks(), rt.Degraded(), rt.sumRetries())
}
