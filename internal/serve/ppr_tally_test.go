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
// pooled table and topk.Select: a map from endpoint to visits, every
// distinct endpoint scored, the lot sorted by reflection and truncated.
// It stays here as the reference the served bytes were generated by.
func mapAndSortCut(ends []graph.VertexID, k int) []topk.Entry {
	counts := make(map[graph.VertexID]int32)
	for _, v := range ends {
		counts[v]++
	}
	entries := make([]topk.Entry, 0, len(counts))
	inv := 1 / float64(len(ends))
	for v, c := range counts {
		entries = append(entries, topk.Entry{Vertex: v, Score: float64(c) * inv})
	}
	sort.Slice(entries, func(i, j int) bool { return topk.Less(entries[j], entries[i]) })
	return entries[:min(k, len(entries))]
}

// TestTallyAndCutEqualMapAndSort: the pooled table plus the bounded-heap
// cut return what the map plus the full sort returned, entry for entry,
// on endpoint multisets of every shape a request can produce — and one
// Scratch keeps doing so as the requests it serves grow and shrink.
func TestTallyAndCutEqualMapAndSort(t *testing.T) {
	r := rng.New(20)
	draw := func(n int, vertex func(i int) graph.VertexID) []graph.VertexID {
		ends := make([]graph.VertexID, n)
		for i := range ends {
			ends[i] = vertex(i)
		}
		return ends
	}
	zipf := rng.NewZipf(1.1, 1, 5000)
	cases := []struct {
		name string
		ends []graph.VertexID
	}{
		{"one walk", []graph.VertexID{7}},
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
		{"every walker on one vertex", draw(16384, func(int) graph.VertexID { return math.MaxUint32 })},
		{"ids that hash alike", draw(4096, func(i int) graph.VertexID { return graph.VertexID(i%64) << 26 })},
		{"full budget", draw(16384, func(int) graph.VertexID { return graph.VertexID(zipf.Sample(r)) })},
		{"small after large", draw(10, func(i int) graph.VertexID { return graph.VertexID(i % 3) })},
	}
	s := walk.Get() // one Scratch for every case: the table is reused across sizes
	defer s.Put()
	for _, tc := range cases {
		distinct := len(mapAndSortCut(tc.ends, len(tc.ends)))
		for _, k := range []int{1, 10, 100, distinct, distinct + 5} {
			s.Walkers = s.Walkers[:0]
			for _, v := range tc.ends {
				s.Add(rng.Stream{}, v, 0)
			}
			got := topk.Select(endpointEntries(s), k)
			if want := mapAndSortCut(tc.ends, k); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, k=%d: pooled tally + Select differ from map + sort\n got %v\nwant %v", tc.name, k, got, want)
			}
		}
	}
}
