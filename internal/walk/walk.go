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

// Stats counts a Run's work: Steps is edge moves plus dangling
// restarts; PageLocal is the moves whose adjacency read hit the same
// page as the move taken just before — the locality the page-ordered
// rounds exist to maximize (a resident graph is a single page).
type Stats struct {
	Steps     uint64
	PageLocal uint64
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
// stepping for as long as its reads stay on the page the reader already
// holds; a move that reads another page waits. Once every live walker
// is waiting, the round's moves are ordered by page and taken — each
// walker stepping on while it stays on the page its move brought in —
// which turns random accesses into near-sequential sweeps of a paged
// graph. A resident graph is a single page (every read reports page 0),
// so there each walker runs start to finish in turn, as a hand-written
// serial loop would, and nothing ever waits or is sorted. visit, when
// non-nil, sees every vertex a walker moves off. On return
// Walkers[i].Cur is walker i's endpoint.
func (s *Scratch) Run(r *graph.AdjReader, restart bool, visit func(graph.VertexID)) Stats {
	var st Stats
	ws := s.Walkers
	moves := s.moves[:0]
	held := int64(-1) // the page the last move read; none yet, so the first read picks it
	take := func(w *Walker, idx int32, page int64) {
		if visit != nil {
			visit(w.Cur) // the vertex moved off: with the endpoint, the complete path
		}
		w.Cur = r.OutAt(w.Cur, int(idx))
		w.Left--
		st.Steps++
		if page == held {
			st.PageLocal++
		}
		held = page
	}
	// advance steps walker i until it finishes or has to wait.
	advance := func(i int32) {
		w := &ws[i]
		for w.Left > 0 {
			deg := r.OutDegree(w.Cur)
			switch {
			case deg > 0:
				idx := int32(w.Stream.Intn(deg))
				page := r.OutPageAt(w.Cur, int(idx))
				if page != held && held >= 0 {
					moves = append(moves, move{page: page, w: i, idx: idx})
					return
				}
				take(w, idx, page)
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
		// moved, then advanced on the page that move brought in; what it
		// waits for next lands in a slot of moves already read.
		slices.SortFunc(moves, func(a, b move) int { return cmp.Compare(a.page, b.page) })
		round := moves
		moves = moves[:0]
		for _, m := range round {
			take(&ws[m.w], m.idx, m.page)
			advance(m.w)
		}
	}
	s.moves = moves
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
