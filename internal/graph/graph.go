// Package graph provides an immutable directed graph in compressed
// sparse row (CSR) form, with both out- and in-adjacency, plus the
// builder and statistics utilities used across the FrogWild
// reproduction.
//
// Vertices are dense uint32 identifiers in [0, NumVertices). The paper
// (Section 2.1) assumes every vertex has at least one successor
// (dout(j) > 0); the Builder offers explicit policies for repairing
// dangling vertices so that assumption can be enforced at load time.
package graph

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices
// uses IDs 0..n-1.
type VertexID = uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// Graph is an immutable directed graph stored as CSR in both
// directions. Construct one with a Builder, the gen/gio packages, or
// FromCSR for pre-built (possibly file-backed) arrays.
type Graph struct {
	n int
	m int64 // directed edge count (adjacency may not be resident)

	// Out-adjacency: successors of row r are outAdj[outOff[r]:outOff[r+1]].
	// Rows equal external vertex ids unless perm is set.
	outOff []int64
	outAdj []VertexID

	// In-adjacency: predecessors of row r are inAdj[inOff[r]:inOff[r+1]].
	inOff []int64
	inAdj []VertexID

	// perm, when non-nil, maps an external vertex id to its internal
	// CSR row (a bijection on [0,n)). Adjacency VALUES are always
	// external ids, so the permutation is invisible outside this
	// package — it only reorders rows for page locality. See paged.go.
	perm []VertexID

	// pager, when non-nil, serves outAdj/inAdj out of a bounded page
	// cache instead of resident arrays (which are then nil). See
	// paged.go.
	pager AdjPager

	// backing owns the memory the arrays alias when it is not the Go
	// heap (an mmap'd gstore file, or the pager for paged graphs); nil
	// for heap-backed graphs. See storage.go.
	backing io.Closer
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.m }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	r := g.rowOf(v)
	return int(g.outOff[r+1] - g.outOff[r])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	r := g.rowOf(v)
	return int(g.inOff[r+1] - g.inOff[r])
}

// Edges calls fn for every edge in src order. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(e Edge) bool) {
	r := g.NewAdjReader()
	defer r.Release()
	for v := 0; v < g.n; v++ {
		for _, d := range r.OutNeighbors(VertexID(v)) {
			if !fn(Edge{VertexID(v), d}) {
				return
			}
		}
	}
}

// Builder accumulates edges and produces an immutable Graph in which
// every vertex has an out-edge: Build gives each vertex of out-degree
// zero a self-loop, because the FrogWild process cannot handle a
// dangling vertex (a frog there would have nowhere to jump). Use
// FromEdges for a graph that keeps its dangling vertices.
type Builder struct {
	n       int
	edges   []Edge
	dedup   bool
	noLoops bool
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Dedup makes Build remove duplicate edges.
func (b *Builder) Dedup() *Builder { b.dedup = true; return b }

// NoSelfLoops makes Build drop self-loop edges (except the ones it adds
// to dangling vertices).
func (b *Builder) NoSelfLoops() *Builder { b.noLoops = true; return b }

// AddEdge appends a directed edge. It panics if an endpoint is out of
// range.
func (b *Builder) AddEdge(src, dst VertexID) *Builder {
	if int(src) >= b.n || int(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst})
	return b
}

// AddEdges appends a batch of edges.
func (b *Builder) AddEdges(es []Edge) *Builder {
	for _, e := range es {
		b.AddEdge(e.Src, e.Dst)
	}
	return b
}

// Build produces the immutable Graph. The Builder must not be reused
// afterwards.
func (b *Builder) Build() (*Graph, error) {
	edges := b.edges
	if b.noLoops {
		kept := edges[:0]
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if b.dedup {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Src != edges[j].Src {
				return edges[i].Src < edges[j].Src
			}
			return edges[i].Dst < edges[j].Dst
		})
		kept := edges[:0]
		var prev Edge
		for i, e := range edges {
			if i == 0 || e != prev {
				kept = append(kept, e)
			}
			prev = e
		}
		edges = kept
	}

	hasOut := make([]bool, b.n)
	for _, e := range edges {
		hasOut[e.Src] = true
	}
	for v, ok := range hasOut {
		if !ok {
			edges = append(edges, Edge{VertexID(v), VertexID(v)})
		}
	}

	return fromEdges(b.n, edges), nil
}

// fromEdges constructs CSR adjacency in both directions by counting
// sort, O(n + m).
func fromEdges(n int, edges []Edge) *Graph {
	g := &Graph{
		n:      n,
		m:      int64(len(edges)),
		outOff: make([]int64, n+1),
		inOff:  make([]int64, n+1),
		outAdj: make([]VertexID, len(edges)),
		inAdj:  make([]VertexID, len(edges)),
	}
	for _, e := range edges {
		g.outOff[e.Src+1]++
		g.inOff[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	outPos := make([]int64, n)
	inPos := make([]int64, n)
	copy(outPos, g.outOff[:n])
	copy(inPos, g.inOff[:n])
	for _, e := range edges {
		g.outAdj[outPos[e.Src]] = e.Dst
		outPos[e.Src]++
		g.inAdj[inPos[e.Dst]] = e.Src
		inPos[e.Dst]++
	}
	return g
}

// FromEdges builds a graph directly from an edge list with no policies
// applied. Endpoints out of range cause a panic.
func FromEdges(n int, edges []Edge) *Graph {
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range for n=%d", e.Src, e.Dst, n))
		}
	}
	cp := make([]Edge, len(edges))
	copy(cp, edges)
	return fromEdges(n, cp)
}

// Stats summarizes a graph's degree structure.
type Stats struct {
	NumVertices int
	NumEdges    int64
	MinOutDeg   int
	MaxOutDeg   int
	MaxInDeg    int
	MeanDeg     float64
	// GiniOut measures out-degree skew in [0,1]; power-law graphs score
	// high (> 0.5), regular graphs score 0.
	GiniOut  float64
	Dangling int // vertices with out-degree zero
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	s := Stats{NumVertices: g.n, NumEdges: g.NumEdges(), MinOutDeg: math.MaxInt}
	if g.n == 0 {
		s.MinOutDeg = 0
		return s
	}
	degs := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		d := g.OutDegree(VertexID(v))
		degs[v] = d
		if d < s.MinOutDeg {
			s.MinOutDeg = d
		}
		if d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
		if d == 0 {
			s.Dangling++
		}
		if id := g.InDegree(VertexID(v)); id > s.MaxInDeg {
			s.MaxInDeg = id
		}
	}
	s.MeanDeg = float64(g.NumEdges()) / float64(g.n)
	// Gini coefficient over the sorted degree sequence.
	sort.Ints(degs)
	var cum, weighted float64
	for i, d := range degs {
		cum += float64(d)
		weighted += float64(d) * float64(i+1)
	}
	if cum > 0 {
		n := float64(g.n)
		s.GiniOut = (2*weighted)/(n*cum) - (n+1)/n
	}
	return s
}

// Validate checks internal CSR invariants; property tests use it, and a
// caller that does not trust a loaded file can. It returns nil if the
// graph is well-formed.
// On paged graphs the adjacency checks stream through the page cache.
func (g *Graph) Validate() error {
	if err := checkOffsets(g.n, g.outOff, g.inOff, g.m); err != nil {
		return err
	}
	if g.pager == nil {
		if g.outOff[g.n] != int64(len(g.outAdj)) || g.inOff[g.n] != int64(len(g.inAdj)) {
			return errors.New("graph: offset totals do not match adjacency lengths")
		}
		if len(g.outAdj) != len(g.inAdj) {
			return errors.New("graph: out/in edge count mismatch")
		}
	}
	if err := checkPerm(g.n, g.perm); err != nil {
		return err
	}
	// Range-check neighbors and confirm the edge multiset agrees
	// between directions. One reader pass covers resident and paged
	// graphs alike; ids seen here are external either way.
	r := g.NewAdjReader()
	defer r.Release()
	var outSum, inSum uint64
	for v := 0; v < g.n; v++ {
		for _, d := range r.OutNeighbors(VertexID(v)) {
			if int(d) >= g.n {
				return fmt.Errorf("graph: out-neighbor %d out of range", d)
			}
			outSum += edgeHash(VertexID(v), d)
		}
		for _, s := range r.InNeighbors(VertexID(v)) {
			if int(s) >= g.n {
				return fmt.Errorf("graph: in-neighbor %d out of range", s)
			}
			inSum += edgeHash(s, VertexID(v))
		}
	}
	if outSum != inSum {
		return errors.New("graph: out/in adjacency encode different edge multisets")
	}
	return nil
}

func edgeHash(s, d VertexID) uint64 {
	x := uint64(s)<<32 | uint64(d)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
