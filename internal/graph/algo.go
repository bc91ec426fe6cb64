package graph

// This file provides graph algorithms used by diagnostics, tests and
// extensions: transposition, induced subgraphs, reachability and
// strongly connected components (Tarjan's algorithm, iterative).

// Transpose returns the graph with every edge reversed, bit-identical
// to rebuilding from the reversed edge list but without materializing
// any []Edge. The transpose's offsets are the receiver's swapped
// (rows stay under the same permutation, if any), and its in-adjacency
// is the receiver's out-adjacency row by row (the reversed edge list
// is enumerated in the receiver's src-major order, so each vertex's
// gT-predecessors appear exactly in its g-successor order). Only the
// transpose's out-adjacency needs work: one counting-scatter pass over
// the receiver's edges, which groups each vertex's reversed sources in
// ascending order as the edge-list rebuild would. The pass goes
// through an AdjReader, so it streams paged receivers through the page
// cache; the result is always heap-backed and fully resident, so it
// outlives a Close of a file-backed receiver.
func (g *Graph) Transpose() *Graph {
	n := g.n
	t := &Graph{
		n:      n,
		m:      g.m,
		outOff: append([]int64(nil), g.inOff...),
		outAdj: make([]VertexID, g.m),
		inOff:  append([]int64(nil), g.outOff...),
		inAdj:  make([]VertexID, g.m),
		perm:   append([]VertexID(nil), g.perm...),
	}
	pos := make([]int64, n)
	copy(pos, t.outOff[:n])
	r := g.NewAdjReader()
	defer r.Release()
	for u := 0; u < n; u++ {
		row := r.OutNeighbors(VertexID(u))
		copy(t.inAdj[t.inOff[t.rowOf(VertexID(u))]:], row)
		for _, d := range row {
			rd := t.rowOf(d)
			t.outAdj[pos[rd]] = VertexID(u)
			pos[rd]++
		}
	}
	return t
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v] true), plus the mapping from new ids to original ids. Edges
// with either endpoint outside the kept set are dropped.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []VertexID) {
	if len(keep) != g.n {
		panic("graph: keep mask length mismatch")
	}
	remap := make([]int32, g.n)
	var orig []VertexID
	for v := 0; v < g.n; v++ {
		if keep[v] {
			remap[v] = int32(len(orig))
			orig = append(orig, VertexID(v))
		} else {
			remap[v] = -1
		}
	}
	var edges []Edge
	g.Edges(func(e Edge) bool {
		s, d := remap[e.Src], remap[e.Dst]
		if s >= 0 && d >= 0 {
			edges = append(edges, Edge{Src: VertexID(s), Dst: VertexID(d)})
		}
		return true
	})
	return fromEdges(len(orig), edges), orig
}

// Reachable returns the set of vertices reachable from start
// (including start) by BFS over out-edges.
func (g *Graph) Reachable(start VertexID) []bool {
	seen := make([]bool, g.n)
	if int(start) >= g.n {
		return seen
	}
	queue := []VertexID{start}
	seen[start] = true
	r := g.NewAdjReader()
	defer r.Release()
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range r.OutNeighbors(v) {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, d)
			}
		}
	}
	return seen
}

// BFSDistances returns hop distances from start over out-edges; -1
// marks unreachable vertices.
func (g *Graph) BFSDistances(start VertexID) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if int(start) >= g.n {
		return dist
	}
	dist[start] = 0
	queue := []VertexID{start}
	r := g.NewAdjReader()
	defer r.Release()
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range r.OutNeighbors(v) {
			if dist[d] < 0 {
				dist[d] = dist[v] + 1
				queue = append(queue, d)
			}
		}
	}
	return dist
}

// SCC computes strongly connected components with an iterative
// Tarjan's algorithm. It returns the component id of every vertex
// (ids are dense, in reverse topological order of the condensation:
// a component's id is >= those of components it can reach) and the
// number of components.
func (g *Graph) SCC() (comp []int32, numComponents int) {
	const unvisited = -1
	n := g.n
	comp = make([]int32, n)
	index := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var (
		counter int32
		stack   []VertexID // Tarjan stack
	)
	type frame struct {
		v  VertexID
		ei int // next out-neighbor index to examine
	}
	var call []frame
	r := g.NewAdjReader()
	defer r.Release()

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: VertexID(root)})
		index[root] = counter
		lowlink[root] = counter
		counter++
		stack = append(stack, VertexID(root))
		onStack[root] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			outs := r.OutNeighbors(f.v)
			advanced := false
			for f.ei < len(outs) {
				w := outs[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = counter
					lowlink[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v is finished.
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := &call[len(call)-1]
				if lowlink[v] < lowlink[parent.v] {
					lowlink[parent.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				// v roots a component: pop it.
				id := int32(numComponents)
				numComponents++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = id
					if w == v {
						break
					}
				}
			}
		}
	}
	return comp, numComponents
}

// LargestSCCMask returns a keep-mask selecting the largest strongly
// connected component (useful for mixing-time experiments, which need
// an irreducible chain even without teleportation).
func (g *Graph) LargestSCCMask() []bool {
	comp, num := g.SCC()
	if num == 0 {
		return make([]bool, g.n)
	}
	sizes := make([]int, num)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	keep := make([]bool, g.n)
	for v, c := range comp {
		keep[v] = c == int32(best)
	}
	return keep
}
