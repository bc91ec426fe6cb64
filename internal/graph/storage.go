package graph

// This file is the storage seam of the graph package: a Graph's four
// CSR arrays live behind it, today either heap-allocated (the Builder
// and generators) or aliased into an mmap'd gstore file (see
// internal/graph/gstore). The public Graph API is identical either
// way; only construction and release differ.

import (
	"errors"
	"fmt"
	"io"
)

// CSR is the raw compressed-sparse-row representation backing a Graph,
// in both directions. OutOff/InOff have NumVertices+1 entries;
// successors of v are OutAdj[OutOff[v]:OutOff[v+1]] and predecessors
// are InAdj[InOff[v]:InOff[v+1]].
type CSR struct {
	NumVertices int
	OutOff      []int64
	OutAdj      []VertexID
	InOff       []int64
	InAdj       []VertexID
	// Perm, when non-nil, maps an external vertex id to its internal
	// CSR row: successors of external v are
	// OutAdj[OutOff[Perm[v]]:OutOff[Perm[v]+1]], and adjacency values
	// are external ids. Degree-ordered relabeling (gstore.Relabel)
	// produces permuted CSRs; nil means rows equal external ids.
	Perm []VertexID
}

// NumEdges returns the directed edge count the arrays encode.
func (c CSR) NumEdges() int64 { return int64(len(c.OutAdj)) }

// checkOffsets verifies the structural invariants every graph
// constructor relies on to slice adjacency safely: correct lengths,
// offsets starting at zero, monotone, and both totals equal to the edge
// count m. It is O(n) and deliberately does not look at the adjacency
// values themselves — that O(E) pass is Graph.Validate, opt-in at load
// time.
func checkOffsets(n int, outOff, inOff []int64, m int64) error {
	if n < 0 {
		return errors.New("graph: negative vertex count")
	}
	if len(outOff) != n+1 || len(inOff) != n+1 {
		return fmt.Errorf("graph: offset lengths %d/%d for n=%d", len(outOff), len(inOff), n)
	}
	if outOff[0] != 0 || inOff[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	for v := 0; v < n; v++ {
		if outOff[v+1] < outOff[v] || inOff[v+1] < inOff[v] {
			return fmt.Errorf("graph: non-monotone offsets at vertex %d", v)
		}
	}
	if outOff[n] != m || inOff[n] != m {
		return fmt.Errorf("graph: offset totals %d/%d for m=%d", outOff[n], inOff[n], m)
	}
	return nil
}

// FromCSR wraps pre-built CSR arrays in a Graph without copying. The
// arrays may alias external storage (an mmap'd file); backing, when
// non-nil, owns that memory and is released by the graph's Close.
//
// The O(n) offset invariants are always checked so neighbor slicing
// can never panic; adjacency contents are NOT checked here. Callers
// loading from untrusted bytes should follow up with Graph.Validate —
// checksummed formats may skip it.
func FromCSR(c CSR, backing io.Closer) (*Graph, error) {
	fail := func(err error) (*Graph, error) {
		if backing != nil {
			backing.Close()
		}
		return nil, err
	}
	if err := checkOffsets(c.NumVertices, c.OutOff, c.InOff, int64(len(c.OutAdj))); err != nil {
		return fail(err)
	}
	if len(c.OutAdj) != len(c.InAdj) {
		return fail(errors.New("graph: out/in edge count mismatch"))
	}
	if err := checkPerm(c.NumVertices, c.Perm); err != nil {
		return fail(err)
	}
	return &Graph{
		n:       c.NumVertices,
		m:       int64(len(c.OutAdj)),
		outOff:  c.OutOff,
		outAdj:  c.OutAdj,
		inOff:   c.InOff,
		inAdj:   c.InAdj,
		perm:    c.Perm,
		backing: backing,
	}, nil
}

// CSRView returns the graph's raw arrays. The slices alias internal
// storage and must not be modified; they are valid until Close. Paged
// graphs have no resident adjacency to view; CSRView panics for them
// (callers that must handle paged graphs go through AdjReader).
func (g *Graph) CSRView() CSR {
	if g.pager != nil {
		panic("graph: CSRView on a paged graph (adjacency is not resident)")
	}
	return CSR{
		NumVertices: g.n,
		OutOff:      g.outOff,
		OutAdj:      g.outAdj,
		InOff:       g.inOff,
		InAdj:       g.inAdj,
		Perm:        g.perm,
	}
}

// Close releases the graph's backing storage — the munmap for
// file-backed graphs. Heap-backed graphs are a no-op (the garbage
// collector owns their arrays). Using the graph, or any slice obtained
// from it, after Close is invalid for file-backed graphs. Close is
// idempotent.
func (g *Graph) Close() error {
	b := g.backing
	if b == nil {
		return nil
	}
	g.backing = nil
	return b.Close()
}
