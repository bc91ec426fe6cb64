// Package walk is the repo's one random-walk step loop. FrogWild's
// estimator is "N truncated-geometric walks, tallied" (the paper's
// Process 15 / Lemma 16; Section 2.4 for the personalized restart);
// the serial reference walk, the Monte Carlo baseline and request-time
// personalized PageRank all run it here and choose only: who seeds the
// walkers (Scratch.Add), the length law (Left is drawn up front:
// min(Geometric(pT), t) is the same law as a per-step Bernoulli(pT)
// death with cutoff t), the tally (endpoints read off the slab, or
// every position each walker stood on, counted in the Scratch's own
// table, for the complete-path estimator) and the dangling policy
// (restart at Home, or stop).
//
// A walker's draws are a pure function of its own stream, so a tally
// is bit-identical for any grouping of walkers into Run calls, any
// worker count and any storage layout, and its whole state is a plain
// value that can be pooled, copied or — one day — sent to another
// machine.
package walk

import (
	"cmp"
	"math/bits"
	"runtime"
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

// Visit is a vertex and the number of walk positions on it.
type Visit struct {
	Vertex graph.VertexID
	Count  int32
}

// Scratch is the reusable walker slab, round buffer and sparse visit
// tally. Get one, Add walkers, Run, read the endpoints off Walkers (or,
// when Run tallied, every position off Visits), Put it back.
type Scratch struct {
	Walkers []Walker
	moves   []move
	// The sparse tally: an open-addressing table (Count 0 marks a free
	// slot) whose first mask+1 slots Run uses, the slots the tally took,
	// and the tally read out of them. The table is all free between a
	// Visits call and the next tallying Run.
	slots       []Visit
	mask, shift uint32
	used        []int32
	visits      []Visit
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
func (s *Scratch) Add(stream rng.Stream, start graph.VertexID, left int) {
	s.Walkers = append(s.Walkers, Walker{Stream: stream, Cur: start, Home: start, Left: int32(left)})
}

// Visits returns the tally of the last Run that tallied: the distinct
// vertices the walks stood on with their counts, in no particular order
// (the order of first visit, which on a paged graph depends on the
// cache). The counts sum to walkers + Stats.Steps. Reading the tally out
// frees exactly the slots it took; the result is the Scratch's own
// memory, valid until the next Visits or Put.
func (s *Scratch) Visits() []Visit {
	s.visits = s.visits[:0]
	for _, h := range s.used {
		s.visits = append(s.visits, s.slots[h])
		s.slots[h] = Visit{}
	}
	s.used = s.used[:0]
	return s.visits
}

// resetTally empties the table and sizes it for the walkers in the slab.
// Its cost is theirs, never the graph's: a walker stands on at most
// 1 + Left positions, so the table is the power of two at least twice
// that bound (at most half full, and a small request after a large one
// probes only its own prefix of it).
func (s *Scratch) resetTally() {
	s.Visits()     // frees what an unread tally left
	positions := 1 // a spare: an empty slab still gets a table
	for i := range s.Walkers {
		positions += 1 + int(s.Walkers[i].Left)
	}
	logSize := bits.Len(uint(2*positions - 1))
	if len(s.slots) < 1<<logSize {
		s.slots = make([]Visit, 1<<logSize)
	}
	s.mask, s.shift = uint32(1)<<logSize-1, uint32(32-logSize)
}

// count adds one position on v to the tally.
func (s *Scratch) count(v graph.VertexID) {
	slots := s.slots[:s.mask+1]
	h := v * 0x9e3779b1 >> s.shift // Fibonacci hashing: the top logSize bits
	for slots[h].Count != 0 && slots[h].Vertex != v {
		h = (h + 1) & s.mask
	}
	if slots[h].Count == 0 {
		slots[h].Vertex = v
		s.used = append(s.used, int32(h))
	}
	slots[h].Count++
}

// Length draws a walk's step count, min(Geometric(pT), cutoff), the way
// a walking frog meets it: one death trial per step, at most cutoff of
// them — no logarithm and no table, so it is the cheap draw for short
// walks. (PPR draws the same law as stream.Geometric draws it, which its
// served bodies pin: rng.TruncGeometric.)
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
// (AdjReader.TryOut: always, on a resident graph; on a paged one,
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
// rounds. With tally set, Run counts every position each walker stands
// on — its start, each edge move and each dangling restart — for Visits
// to read. On return Walkers[i].Cur is walker i's endpoint.
func (s *Scratch) Run(r *graph.AdjReader, restart, tally bool) Stats {
	var st Stats // PageLocal counts every adjacency read until the page switches come off below
	s.moves = s.moves[:0]
	if tally {
		s.resetTally()
	}
	switches := r.PageSwitches()
	for i := range s.Walkers {
		if tally {
			s.count(s.Walkers[i].Cur)
		}
		s.advance(int32(i), r, restart, tally, &st)
	}
	for len(s.moves) > 0 {
		// The walkers still live are exactly the ones waiting. Each is
		// moved — OutAt loads the page if an earlier move of the sweep
		// has not — then advanced; what it waits for next lands in a slot
		// of moves already read.
		up := st.Sweeps%2 == 0
		slices.SortFunc(s.moves, func(a, b move) int {
			if up {
				return cmp.Compare(a.page, b.page)
			}
			return cmp.Compare(b.page, a.page)
		})
		st.Sweeps++
		st.Waits += uint64(len(s.moves))
		round := s.moves
		s.moves = s.moves[:0]
		for _, m := range round {
			w := &s.Walkers[m.w]
			w.Cur = r.OutAt(w.Cur, int(m.idx))
			w.Left--
			st.Steps++
			st.PageLocal++
			if tally {
				s.count(w.Cur)
			}
			s.advance(m.w, r, restart, tally, &st)
		}
	}
	st.PageLocal -= r.PageSwitches() - switches
	return st
}

// advance steps walker i until it finishes or has to wait, in which case
// its next move is appended to s.moves, and adds its steps and adjacency
// reads to st; with tally set it counts each position it steps to. The
// walker's state lives in locals while it runs free and is written back
// once; each step resolves the vertex's row and offset once (OutSpan)
// for the degree, the read and, on a miss, the page.
func (s *Scratch) advance(i int32, r *graph.AdjReader, restart, tally bool, st *Stats) {
	w := &s.Walkers[i]
	cur, left, stream := w.Cur, w.Left, w.Stream
	var reads, restarts uint64
	for left > 0 {
		lo, deg := r.OutSpan(cur)
		if deg == 0 {
			if !restart {
				left = 0
				break
			}
			cur = w.Home // a step, but no read
			left--
			restarts++
			if tally {
				s.count(cur)
			}
			continue
		}
		idx := stream.Intn(deg)
		at := lo + int64(idx)
		next, ok := r.TryOut(at)
		if !ok {
			s.moves = append(s.moves, move{page: r.OutPage(at), w: i, idx: int32(idx)})
			break
		}
		cur = next
		left--
		reads++
		if tally {
			s.count(cur)
		}
	}
	w.Cur, w.Left, w.Stream = cur, left, stream
	st.Steps += reads + restarts
	st.PageLocal += reads
}

// Tally runs walkers [0, n) — seed adds walker i, whose stream must
// derive from i alone — under the stop-at-dangling policy across
// GOMAXPROCS goroutines. It returns the dense per-vertex tally (walk
// endpoints, or with completePath every position visited) and the total
// step count, bit-identical for every GOMAXPROCS: chunk boundaries
// depend only on n (parallel.Chunks), each chunk is one Run, and the
// per-worker integer tallies are summed after the pool drains.
func Tally(g *graph.Graph, n int, completePath bool, seed func(s *Scratch, i int)) ([]int64, uint64) {
	chunks := parallel.Chunks(n)
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
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
		steps.Add(s.Run(r, false, completePath).Steps)
		if completePath {
			for _, v := range s.Visits() {
				tally[v.Vertex] += int64(v.Count)
			}
			return
		}
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
