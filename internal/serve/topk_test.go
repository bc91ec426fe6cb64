package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// TestTopKEveryKIsAPrefixOfTheIndex holds the /v1/topk body for every k
// from 1 to two past MaxK (the index's prefixes, then fresh selections)
// to encoding/json's body of topk.Top's cut to k, on a snapshot entering
// the store each way: built and published, wrapped by FromRanks, warm
// started through Restore at the epoch it was saved with, and one whose
// scores run in long ties.
func TestTopKEveryKIsAPrefixOfTheIndex(t *testing.T) {
	g := testGraph(t)
	n := g.NumVertices()
	build := func() *Snapshot {
		snap, err := Build(g, testBuildConfig(EngineFrogWild))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	fromRanks := func(ranks []float64, maxK int) *Snapshot {
		snap, err := FromRanks(g, Engine("glpr"), 5, ranks, maxK)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	ties := make([]float64, n)
	for v := range ties {
		ties[v] = float64(1+v%4) / float64(5*n)
	}
	for _, tc := range []struct {
		name  string
		enter func(*Store) *Snapshot
	}{
		{"Build", func(st *Store) *Snapshot { return st.Publish(build()) }},
		{"FromRanks", func(st *Store) *Snapshot { return st.Publish(fromRanks(build().Ranks, 30)) }},
		{"Restore", func(st *Store) *Snapshot {
			saved := build()
			saved.Epoch = 41
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, saved); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadSnapshot(&buf, g)
			if err != nil {
				t.Fatal(err)
			}
			return st.Restore(loaded)
		}},
		{"ties", func(st *Store) *Snapshot { return st.Publish(fromRanks(ties, 40)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore()
			snap := tc.enter(st)
			srv := NewServer(st, ServerOptions{})
			for k := 1; k <= snap.MaxK+2; k++ {
				rows := []api.TopKEntry{}
				for _, e := range topk.Top(snap.Ranks, k) {
					rows = append(rows, api.TopKEntry{Vertex: e.Vertex, Score: e.Score})
				}
				want, err := json.Marshal(api.TopKResponse{
					Epoch: snap.Epoch, Engine: snap.Engine, Seed: snap.Seed, K: len(rows), Entries: rows,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := body(t, srv, fmt.Sprintf("/v1/topk?k=%d", k)); got != string(want)+"\n" {
					t.Fatalf("k=%d (MaxK %d):\n got %.300s\nwant %.300s", k, snap.MaxK, got, want)
				}
			}
			if hits := srv.CacheHits(); hits != uint64(snap.MaxK) {
				t.Fatalf("%d queries answered from the index, want MaxK = %d", hits, snap.MaxK)
			}
		})
	}
}

// TestTopKSweepHoldsNoBodies sweeps k past maxk, every 16th k from 101
// to 4096 on a 5 000-vertex graph, and requires the heap in use after a
// collection to come back within 4 MiB of where it started: no body of
// the sweep outlives its request (a cache of them would hold ≈ 24 MB).
func TestTopKSweepHoldsNoBodies(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(5000, 7))
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]float64, g.NumVertices())
	for v := range ranks {
		ranks[v] = 1 / float64(v+1)
	}
	snap, err := FromRanks(g, EngineExact, 1, ranks, DefaultMaxK)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	st.Publish(snap)
	srv := NewServer(st, ServerOptions{})
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC() // the second empties what sync.Pool kept through the first
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}

	body(t, srv, "/v1/topk?k=100")
	before := heapInuse()
	for k := 101; k <= 4096; k += 16 {
		body(t, srv, fmt.Sprintf("/v1/topk?k=%d", k))
	}
	after := heapInuse()
	runtime.KeepAlive(srv) // what the server holds is the point: it must not be collected first
	if after > before+4<<20 {
		t.Fatalf("a k sweep left the heap in use %.1f MB larger", float64(after-before)/(1<<20))
	}
}
