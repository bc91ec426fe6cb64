// Package topk selects the heaviest entries of a score vector and
// implements the paper's two accuracy metrics (Section 2.1.1):
//
//   - Captured mass µk (Definition 2): the true PageRank mass of the
//     k-set an estimate would report.
//   - Exact identification: the fraction of the reported top-k that is
//     also in the true top-k.
package topk

import ()

// Entry pairs a vertex with its score. The tags make it the
// {"vertex":…,"score":…} row of every top-k body and shard frame.
type Entry struct {
	Vertex uint32  `json:"vertex"`
	Score  float64 `json:"score"`
}

// entryHeap is a typed min-heap over the entryLess total order: the
// root is the weakest retained entry, so selection keeps the k
// strongest. Typed sift methods avoid container/heap's boxing through
// interface values on the hot selection path.
type entryHeap []Entry

// siftUp restores heap order after appending at index i.
func (h entryHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores heap order after replacing index i.
func (h entryHeap) siftDown(i int) {
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && entryLess(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && entryLess(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Top returns the k highest-scoring entries in descending score order.
// Ties are broken toward smaller vertex ids, deterministically. If
// k >= len(scores), all vertices are returned.
func Top(scores []float64, k int) []Entry {
	if k <= 0 {
		return nil
	}
	if k > len(scores) {
		k = len(scores)
	}
	h := make(entryHeap, 0, k)
	for v, s := range scores {
		e := Entry{Vertex: uint32(v), Score: s}
		if len(h) < k {
			h = append(h, e)
			h.siftUp(len(h) - 1)
			continue
		}
		if entryLess(h[0], e) {
			h[0] = e
			h.siftDown(0)
		}
	}
	return h.drain()
}

// entryLess reports whether a ranks strictly below b (lower score, or
// equal score and larger vertex id).
func entryLess(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Vertex > b.Vertex
}

// Less exposes the package's total order (a strictly below b): lower
// score first, ties toward larger vertex id. Selection, merging and
// any external consumer ordering partial results all use this one
// comparison, which is what makes distributed top-k merge exact.
func Less(a, b Entry) bool { return entryLess(a, b) }

// Subset returns the k highest-scoring entries among the given
// vertices only, in the same descending total order as Top. Vertices
// out of range of scores are ignored. It is the shard-side half of
// distributed selection: if the vertex sets partition [0,len(scores)),
// Merge of the per-subset results equals Top of the whole vector.
func Subset(scores []float64, vertices []uint32, k int) []Entry {
	if k <= 0 {
		return nil
	}
	if k > len(vertices) {
		k = len(vertices)
	}
	h := make(entryHeap, 0, k)
	for _, v := range vertices {
		if int(v) >= len(scores) {
			continue
		}
		e := Entry{Vertex: v, Score: scores[v]}
		if len(h) < k {
			h = append(h, e)
			h.siftUp(len(h) - 1)
			continue
		}
		if entryLess(h[0], e) {
			h[0] = e
			h.siftDown(0)
		}
	}
	return h.drain()
}

// drain sorts the heap in place into descending order and returns it:
// the weakest entry is popped into the tail until the heap drains. The
// ordering is total, so the result is unique no matter how the heap
// arranged itself internally.
func (h entryHeap) drain() []Entry {
	for last := len(h) - 1; last > 0; last-- {
		h[0], h[last] = h[last], h[0]
		h[:last].siftDown(0)
	}
	return h
}

// Merge combines partial top-k lists (each sorted descending in the
// package's total order, as Top and Subset produce) into the global
// top-k, bit-exact: because the order is total, the merged prefix of
// the concatenated lists is the unique answer — there is no
// tie-breaking freedom for shards to disagree on. Duplicate vertices
// across lists are kept; callers partition the vertex space so they
// cannot occur.
//
// It is a k-way merge that stops after k outputs: each output takes
// the strongest of the lists' heads, so the cost is k comparisons per
// list — never more than reading the input once — and entries past
// the cut are not touched.
func Merge(lists [][]Entry, k int) []Entry {
	if k <= 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if k > total {
		k = total
	}
	out := make([]Entry, 0, k)
	heads := make([]int, len(lists))
	for len(out) < k {
		best := -1
		for i, l := range lists {
			if heads[i] < len(l) && (best < 0 || entryLess(lists[best][heads[best]], l[heads[i]])) {
				best = i
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// CapturedMass computes µk(est) with respect to the true distribution
// pi: the pi-mass of the top-k set chosen by est (Definition 2 of the
// paper). The optimum is CapturedMass(pi, pi, k) = µk(pi).
func CapturedMass(pi, est []float64, k int) float64 {
	mass := 0.0
	for _, e := range Top(est, k) {
		mass += pi[e.Vertex]
	}
	return mass
}

// OptimalMass returns µk(pi), the best possible captured mass.
func OptimalMass(pi []float64, k int) float64 {
	return CapturedMass(pi, pi, k)
}

// NormalizedCapturedMass returns µk(est)/µk(pi) in [0,1]; this is the
// "Mass captured" accuracy the paper plots (1.0 = perfect).
func NormalizedCapturedMass(pi, est []float64, k int) float64 {
	opt := OptimalMass(pi, k)
	if opt == 0 {
		return 1
	}
	return CapturedMass(pi, est, k) / opt
}

// ExactIdentification returns |top-k(est) ∩ top-k(pi)| / k, the paper's
// second metric ("Exact identification").
func ExactIdentification(pi, est []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	den := min(k, len(pi)) // k comes off a query string: never size by it
	if den == 0 {
		return 1
	}
	truth := make(map[uint32]struct{}, den)
	for _, e := range Top(pi, k) {
		truth[e.Vertex] = struct{}{}
	}
	hits := 0
	for _, e := range Top(est, k) {
		if _, ok := truth[e.Vertex]; ok {
			hits++
		}
	}
	return float64(hits) / float64(den)
}
