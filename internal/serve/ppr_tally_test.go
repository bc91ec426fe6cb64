package serve

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topk"
	"repro/internal/walk"
)

// mapAndSortCut is the tally and cut /v1/ppr shipped with before the
// pooled table and the packed cut: a map from vertex to the positions on
// it, every distinct vertex scored with its share of all of them, the
// lot sorted by reflection and truncated. It stays here as the
// reference the served bytes are checked against.
func mapAndSortCut(positions []graph.VertexID, k int) []topk.Entry {
	counts := make(map[graph.VertexID]int32)
	for _, v := range positions {
		counts[v]++
	}
	entries := make([]topk.Entry, 0, len(counts))
	inv := 1 / float64(len(positions))
	for v, c := range counts {
		entries = append(entries, topk.Entry{Vertex: v, Score: float64(c) * inv})
	}
	sort.Slice(entries, func(i, j int) bool { return topk.Less(entries[j], entries[i]) })
	return entries[:min(k, len(entries))]
}

// servedPositions walks plan over snap in a hand-written serial loop,
// drawing from the served streams, and returns every position each walk
// stands on: its start, each edge move and each return to the source
// from a dangling vertex.
func servedPositions(snap *Snapshot, plan pprPlan) []graph.VertexID {
	var positions []graph.VertexID
	adj := snap.Graph.NewAdjReader()
	defer adj.Release()
	for _, src := range plan.sources {
		for w := 0; w < plan.walksPer; w++ {
			stream := rng.DeriveValue(snap.Seed, pprPurpose, snap.Epoch, uint64(src), uint64(w))
			cur := src
			positions = append(positions, cur)
			for left := pprLengths.Draw(&stream); left > 0; left-- {
				if outs := adj.OutNeighbors(cur); len(outs) > 0 {
					cur = outs[stream.Intn(len(outs))]
				} else {
					cur = src
				}
				positions = append(positions, cur)
			}
		}
	}
	return positions
}

// TestTallyAndCutEqualMapAndSort: the pooled table, then the cut's sort
// and packing, then the rows appendEntries reads back return what the map
// plus the full sort returned, entry for entry, on visit multisets of
// every shape a request can produce — and one Scratch keeps doing so as
// the requests it serves grow and shrink. A synthetic multiset is the
// starts of walkers that take no step, cut straight from the Scratch; a
// served one is the positions of the served walks, from a serial re-walk
// of their streams, against PPRTopK's rows: one source's own tally, or a
// set's composed cut.
func TestTallyAndCutEqualMapAndSort(t *testing.T) {
	r := rng.New(20)
	draw := func(n int, vertex func(i int) graph.VertexID) []graph.VertexID {
		positions := make([]graph.VertexID, n)
		for i := range positions {
			positions[i] = vertex(i)
		}
		return positions
	}
	zipf := rng.NewZipf(1.1, 1, 5000)
	cases := []struct {
		name      string
		positions []graph.VertexID
	}{
		{"one position", []graph.VertexID{7}},
		{"uniform, few collisions", draw(2000, func(int) graph.VertexID { return graph.VertexID(r.Intn(50000)) })},
		{"skewed", draw(2000, func(int) graph.VertexID { return graph.VertexID(zipf.Sample(r)) })},
		{"all ties", draw(3000, func(i int) graph.VertexID { return graph.VertexID(3000 - i) })},
		{"two-way ties", draw(3000, func(i int) graph.VertexID { return graph.VertexID(i % 1500 * 7) })},
		{"one hot vertex", draw(2000, func(i int) graph.VertexID {
			if i%50 == 0 {
				return graph.VertexID(i)
			}
			return 41
		})},
		{"every position on one vertex", draw(16384, func(int) graph.VertexID { return math.MaxUint32 })},
		{"ids that hash alike", draw(4096, func(i int) graph.VertexID { return graph.VertexID(i%64) << 26 })},
		{"full budget", draw(16384, func(int) graph.VertexID { return graph.VertexID(zipf.Sample(r)) })},
		{"small after large", draw(10, func(i int) graph.VertexID { return graph.VertexID(i % 3) })},
	}
	_, snap := pprServer(t, PPROptions{})
	reader := snap.Graph.NewAdjReader()
	defer reader.Release()
	s := walk.Get() // one Scratch for every case: the table is reused across sizes
	defer s.Put()
	check := func(name string, positions []graph.VertexID, cut func(k int) []topk.Entry) {
		t.Helper()
		distinct := len(mapAndSortCut(positions, len(positions)))
		for _, k := range []int{1, 10, 100, distinct, distinct + 5} {
			if got, want := cut(k), mapAndSortCut(positions, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, k=%d: pooled tally + cut differ from map + sort\n got %v\nwant %v", name, k, got, want)
			}
		}
	}
	for _, tc := range cases {
		check(tc.name, tc.positions, func(k int) []topk.Entry {
			s.Walkers = s.Walkers[:0]
			for _, v := range tc.positions {
				s.Add(rng.Stream{}, v, 0)
			}
			steps := s.Run(reader, true, true).Steps
			var tally pprTally
			tally.cut(s.Visits(), k, uint64(len(s.Walkers))+steps)
			return tally.appendEntries(nil, k)
		})
	}
	for _, tc := range []struct {
		name    string
		sources []graph.VertexID
		budget  int
	}{
		{"served, one source", []graph.VertexID{7}, 0},
		{"served, four sources", []graph.VertexID{3, 700, 1999, 12}, 0},
		{"served, four sources truncated", []graph.VertexID{3, 700, 1999, 12}, 1500},
	} {
		opts := PPROptions{WalkBudget: tc.budget}
		plan, _, _, err := planPPR(tc.sources, 1, snap.Graph.NumVertices(), opts.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		check(tc.name, servedPositions(snap, plan), func(k int) []topk.Entry {
			entries, _, err := PPRTopK(snap, tc.sources, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			return entries
		})
	}
}
