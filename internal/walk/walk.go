// Package walk is the repo's one random-walk step loop. FrogWild's
// estimator is "N truncated-geometric walks, tallied" (the paper's
// Process 15 / Lemma 16; Section 2.4 for the personalized restart);
// the serial reference walk, the Monte Carlo baseline and request-time
// personalized PageRank all run it here and choose only: who seeds the
// walkers (Scratch.Add), the length law (Left is drawn up front:
// min(Geometric(pT), t) is the same law as a per-step Bernoulli(pT)
// death with cutoff t), the tally (endpoints read off the slab, plus a
// visit callback on every vertex moved off for the complete-path
// estimator) and the dangling policy (restart at Home, or stop).
//
// A walker's draws are a pure function of its own stream, so a tally
// is bit-identical for any grouping of walkers into Run calls, any
// worker count and any storage layout, and its whole state is a plain
// value that can be pooled, copied or — one day — sent to another
// machine.
package walk

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Walker is one random walk in flight.
type Walker struct {
	Stream rng.Stream     // private randomness: one draw per edge move, in step order
	Cur    graph.VertexID // current vertex; after Run, the endpoint
	Home   graph.VertexID // where a restart-policy walker returns from a dangling vertex
	Left   int32          // steps still to take
	Tag    int32          // the caller's label (which task the walker tallies into)
}

// Stats counts a Run's work. Steps is edge moves plus dangling
// restarts. PageLocal is the edge moves whose adjacency read was on the
// page the reader already held (all of them on a resident graph, which
// has no pages to change). Waits is the edge moves that had to wait for
// a page that was not in the cache, and Sweeps the page-ordered passes
// that loaded those pages: Waits/Steps is the share of a walk that pays
// for I/O, Waits/Sweeps how many walkers a load is shared between.
type Stats struct {
	Steps     uint64
	PageLocal uint64
	Waits     uint64
	Sweeps    uint64
}

// move is a waiting walker's next step: the index drawn, the page to read.
type move struct {
	page int64
	w    int32
	idx  int32
}

// Scratch is the reusable walker slab and round buffer. Get one, Add
// walkers, Run, read the endpoints off Walkers, Put it back.
type Scratch struct {
	Walkers []Walker
	moves   []move
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Get returns an empty Scratch from the pool.
func Get() *Scratch { return scratchPool.Get().(*Scratch) }

// Put empties s and returns it to the pool; s must not be used
// afterwards.
func (s *Scratch) Put() {
	s.Walkers = s.Walkers[:0]
	scratchPool.Put(s)
}

// Add appends a walker starting (and, under the restart policy,
// restarting) at start with left steps to take.
func (s *Scratch) Add(stream rng.Stream, start graph.VertexID, left, tag int) {
	s.Walkers = append(s.Walkers, Walker{Stream: stream, Cur: start, Home: start, Left: int32(left), Tag: int32(tag)})
}

// Length draws a walk's step count, min(Geometric(pT), cutoff), the way
// a walking frog meets it: one death trial per step, at most cutoff of
// them — no logarithm, so it is the cheap draw for short walks. (PPR
// draws the same law with stream.Geometric, which its served bodies
// pin.)
func Length(stream *rng.Stream, pT float64, cutoff int) int {
	left := 0
	for left < cutoff && !stream.Bernoulli(pT) {
		left++
	}
	return left
}

// Run advances every walker in the slab to the end of its walk. A
// walker draws its next neighbour index from its own stream and keeps
// stepping for as long as the element it reads is in memory
// (AdjReader.TryOutAt: always, on a resident graph; on a paged one,
// whenever the page is in the cache, whichever page that is); it waits
// only for a page that is not there. Once every live walker is waiting,
// the waiting moves are ordered by page and swept: each page is loaded
// once for everyone waiting on it, and each moved walker then runs free
// again until its next miss. Successive sweeps alternate direction
// (elevator order), so the pages a sweep ends on are still in the cache
// when the next one starts there. On a resident graph nothing ever
// waits or is sorted: each walker runs start to finish in turn, as a
// hand-written serial loop would. With a cache of a single frame every
// change of page is a miss, and the kernel degenerates to page-at-a-time
// rounds. visit, when non-nil, sees every vertex a walker moves off. On
// return Walkers[i].Cur is walker i's endpoint.
func (s *Scratch) Run(r *graph.AdjReader, restart bool, visit func(graph.VertexID)) Stats {
	var st Stats
	ws := s.Walkers
	moves := s.moves[:0]
	var reads uint64
	switches := r.PageSwitches()
	take := func(w *Walker, next graph.VertexID) {
		if visit != nil {
			visit(w.Cur) // the vertex moved off: with the endpoint, the complete path
		}
		w.Cur = next
		w.Left--
		reads++
	}
	// advance steps walker i until it finishes or has to wait.
	advance := func(i int32) {
		w := &ws[i]
		for w.Left > 0 {
			deg := r.OutDegree(w.Cur)
			switch {
			case deg > 0:
				idx := w.Stream.Intn(deg)
				next, ok := r.TryOutAt(w.Cur, idx)
				if !ok {
					moves = append(moves, move{page: r.OutPageAt(w.Cur, idx), w: i, idx: int32(idx)})
					return
				}
				take(w, next)
			case restart:
				w.Cur = w.Home // a step, but no read
				w.Left--
				st.Steps++
			default:
				w.Left = 0
			}
		}
	}
	for i := range ws {
		advance(int32(i))
	}
	for len(moves) > 0 {
		// The walkers still live are exactly the ones waiting. Each is
		// moved — OutAt loads the page if an earlier move of the sweep
		// has not — then advanced; what it waits for next lands in a slot
		// of moves already read.
		up := st.Sweeps%2 == 0
		slices.SortFunc(moves, func(a, b move) int {
			if up {
				return cmp.Compare(a.page, b.page)
			}
			return cmp.Compare(b.page, a.page)
		})
		st.Sweeps++
		st.Waits += uint64(len(moves))
		round := moves
		moves = moves[:0]
		for _, m := range round {
			w := &ws[m.w]
			take(w, r.OutAt(w.Cur, int(m.idx)))
			advance(m.w)
		}
	}
	s.moves = moves
	st.Steps += reads
	st.PageLocal = reads - (r.PageSwitches() - switches)
	return st
}

// Tally runs walkers [0, n) — seed adds walker i, whose stream must
// derive from i alone — under the stop-at-dangling policy across
// workers goroutines (0 = GOMAXPROCS). It returns the dense per-vertex
// tally (walk endpoints, or with completePath every vertex visited) and
// the total step count, bit-identical for every workers value: chunk
// boundaries depend only on n (parallel.Chunks), each chunk is one Run,
// and the per-worker integer tallies are summed after the pool drains.
func Tally(g *graph.Graph, n, workers int, completePath bool, seed func(s *Scratch, i int)) ([]int64, uint64) {
	chunks := parallel.Chunks(n)
	pool := parallel.NewPool(workers)
	defer pool.Close()
	counts := make([][]int64, pool.NumWorkers())
	for w := range counts {
		counts[w] = make([]int64, g.NumVertices())
	}
	var steps atomic.Uint64
	pool.Run(len(chunks), func(c, worker int) {
		tally := counts[worker]
		s := Get()
		defer s.Put()
		r := g.NewAdjReader()
		defer r.Release()
		for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
			seed(s, i)
		}
		var visit func(graph.VertexID)
		if completePath {
			visit = func(v graph.VertexID) { tally[v]++ }
		}
		steps.Add(s.Run(r, false, visit).Steps)
		for i := range s.Walkers {
			tally[s.Walkers[i].Cur]++
		}
	})
	for w := 1; w < len(counts); w++ {
		for v, c := range counts[w] {
			counts[0][v] += c
		}
	}
	return counts[0], steps.Load()
}
