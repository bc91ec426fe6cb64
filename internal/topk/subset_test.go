package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// tieScores builds a vector full of deliberate score ties, including a
// run of equal scores guaranteed to straddle any small selection cut.
func tieScores(n int) []float64 {
	scores := make([]float64, n)
	r := rand.New(rand.NewSource(42))
	for i := range scores {
		// Only 7 distinct values: every selection cut lands inside a
		// tie run, so ordering mistakes cannot hide.
		scores[i] = float64(r.Intn(7)) / 10
	}
	return scores
}

// partition splits [0,n) into `parts` vertex sets round-robin, so
// every part holds vertices from everywhere in the id space.
func partition(n, parts int) [][]uint32 {
	out := make([][]uint32, parts)
	for v := 0; v < n; v++ {
		out[v%parts] = append(out[v%parts], uint32(v))
	}
	return out
}

// TestSubsetMergeEqualsTop is the distributed-selection property the
// sharded serving plane rests on: per-partition Subset results, merged
// with Merge, are bit-identical to a single Top over the whole vector —
// for several partition counts and ks, with heavy ties across the cut.
func TestSubsetMergeEqualsTop(t *testing.T) {
	const n = 500
	scores := tieScores(n)
	for _, parts := range []int{1, 2, 4, 7} {
		sets := partition(n, parts)
		for _, k := range []int{1, 3, 10, 63, n, n + 5} {
			want := Top(scores, k)
			lists := make([][]Entry, parts)
			for i, set := range sets {
				lists[i] = Subset(scores, set, k)
			}
			got := Merge(lists, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parts=%d k=%d: merge diverged from Top\n got %v\nwant %v",
					parts, k, got[:min(5, len(got))], want[:min(5, len(want))])
			}
		}
	}
}

// TestSubsetOfAllVerticesEqualsTop pins Subset's own ordering against
// Top when the subset is the full vertex space.
func TestSubsetOfAllVerticesEqualsTop(t *testing.T) {
	scores := tieScores(200)
	all := make([]uint32, len(scores))
	for v := range all {
		all[v] = uint32(v)
	}
	for _, k := range []int{1, 7, 50, 200} {
		if got, want := Subset(scores, all, k), Top(scores, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: Subset(all) != Top", k)
		}
	}
}

// TestSubsetIgnoresOutOfRange checks robustness against a shard whose
// ownership list mentions vertices beyond the score vector (a shorter
// snapshot after a graph change must not panic the shard).
func TestSubsetIgnoresOutOfRange(t *testing.T) {
	scores := []float64{0.5, 0.3, 0.2}
	got := Subset(scores, []uint32{0, 2, 9}, 5)
	want := []Entry{{Vertex: 0, Score: 0.5}, {Vertex: 2, Score: 0.2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// TestMergeEdgeCases covers empty and undersized inputs.
func TestMergeEdgeCases(t *testing.T) {
	if got := Merge(nil, 5); len(got) != 0 {
		t.Fatalf("merge of nothing: %v", got)
	}
	if got := Merge([][]Entry{{}, {}}, 5); len(got) != 0 {
		t.Fatalf("merge of empties: %v", got)
	}
	one := [][]Entry{{{Vertex: 3, Score: 1}}}
	if got := Merge(one, 0); got != nil {
		t.Fatalf("k=0: %v", got)
	}
	if got := Merge(one, 10); len(got) != 1 || got[0].Vertex != 3 {
		t.Fatalf("k>len: %v", got)
	}
}

// TestLessMatchesOrdering pins the exported comparator against the
// output order of Top.
func TestLessMatchesOrdering(t *testing.T) {
	scores := tieScores(100)
	top := Top(scores, 100)
	for i := 1; i < len(top); i++ {
		if Less(top[i-1], top[i]) {
			t.Fatalf("Top output not descending under Less at %d", i)
		}
		if !Less(top[i], top[i-1]) {
			t.Fatalf("total order violated: adjacent entries equal at %d", i)
		}
	}
}

// mergeBySort is Merge as first defined — concatenate, sort descending
// in the total order, cut at k — kept as the reference the k-way merge
// is held to.
func mergeBySort(lists [][]Entry, k int) []Entry {
	if k <= 0 {
		return nil
	}
	all := []Entry{}
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return entryLess(all[j], all[i]) })
	return all[:min(k, len(all))]
}

// TestMergeMatchesSortDefinition holds the k-way merge to the sort-based
// definition on random tie-heavy inputs: no lists, empty lists, a single
// list, k = 0, k past the total, and the same vertex in several lists
// (kept, as before). The second half keeps Merge(Subset parts) == Top
// for random partitions of the vertex space.
func TestMergeMatchesSortDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		lists := make([][]Entry, r.Intn(7))
		total := 0
		for i := range lists {
			l := make([]Entry, r.Intn(4)*r.Intn(9))
			for j := range l {
				// Three scores and thirty vertices: ties inside and across
				// lists, and duplicates of whole entries.
				l[j] = Entry{Vertex: uint32(r.Intn(30)), Score: float64(r.Intn(3)) / 4}
			}
			sort.Slice(l, func(a, b int) bool { return entryLess(l[b], l[a]) })
			lists[i] = l
			total += len(l)
		}
		for _, k := range []int{-1, 0, 1, r.Intn(total + 1), total, total + 3} {
			if got, want := Merge(lists, k), mergeBySort(lists, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d lists=%v\n got %v\nwant %v", trial, k, lists, got, want)
			}
		}
	}

	scores := tieScores(300)
	for trial := 0; trial < 50; trial++ {
		sets := make([][]uint32, 1+r.Intn(8))
		for v := range scores {
			p := r.Intn(len(sets))
			sets[p] = append(sets[p], uint32(v))
		}
		k := 1 + r.Intn(len(scores)+10)
		lists := make([][]Entry, len(sets))
		for i, set := range sets {
			lists[i] = Subset(scores, set, k)
		}
		if got, want := Merge(lists, k), Top(scores, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d random parts, k=%d: merge diverged from Top", trial, len(sets), k)
		}
	}
}
