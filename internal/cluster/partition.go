// Package cluster models a vertex-cut distributed graph cluster in the
// style of GraphLab PowerGraph: edges are partitioned across machines,
// vertices are replicated wherever their edges live, one replica per
// vertex is the master, and all traffic between machines is metered.
//
// The package provides the three ingress (partitioning) strategies
// PowerGraph ships — random hashed edge placement, oblivious greedy
// placement, and 2-D grid placement — plus the Layout structure the GAS
// engine executes against, the network Meter, and the CostModel that
// converts metered bytes and operations into simulated seconds.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/rng"
)

// MaxMachines bounds the cluster size; machine ids fit in a uint16.
const MaxMachines = 1 << 12

// Partitioner assigns each edge of a graph to a machine.
type Partitioner interface {
	// Name identifies the strategy in reports.
	Name() string
	// Place returns, for each edge in the graph's canonical CSR order,
	// the machine that owns it. len(result) == g.NumEdges().
	Place(g *graph.Graph, machines int, seed uint64) []uint16
}

// hash64 mixes a 64-bit value (splitmix64 finalizer).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Random places each edge on a machine chosen by hashing the edge,
// PowerGraph's default "random" ingress.
type Random struct{}

// Name implements Partitioner.
func (Random) Name() string { return "random" }

// Place implements Partitioner.
func (Random) Place(g *graph.Graph, machines int, seed uint64) []uint16 {
	checkMachines(machines)
	mod := uint64(machines)
	return placeEdges(g, func(v graph.VertexID, dsts []graph.VertexID, out []uint16) {
		src := uint64(v) << 32
		for k, d := range dsts {
			out[k] = uint16(hash64(src|uint64(d)*0x9e3779b97f4a7c15^seed) % mod)
		}
	})
}

// Oblivious implements PowerGraph's greedy heuristic: each edge is
// placed to minimize new replicas, preferring machines that already
// host both endpoints, then either endpoint, then the least-loaded
// machine. It processes edges in a seeded pseudo-random order (greedy
// quality depends on order; a fixed order would bias against high-id
// sources).
type Oblivious struct{}

// Name implements Partitioner.
func (Oblivious) Name() string { return "oblivious" }

// Place implements Partitioner.
func (Oblivious) Place(g *graph.Graph, machines int, seed uint64) []uint16 {
	checkMachines(machines)
	stream := streamOrder(g, seed, 0x0B11)
	pres := newPresenceSet(g.NumVertices(), machines)

	load := make([]int64, machines)
	choice := make([]uint16, len(stream))
	leastLoaded := func(pred func(m int) bool) int {
		best, bestLoad := -1, int64(math.MaxInt64)
		for m := 0; m < machines; m++ {
			if pred != nil && !pred(m) {
				continue
			}
			if load[m] < bestLoad {
				best, bestLoad = m, load[m]
			}
		}
		return best
	}
	for _, e := range stream {
		u, v := e.Src, e.Dst
		var m int
		switch {
		case anyMachine(machines, func(mm int) bool { return pres.has(u, mm) && pres.has(v, mm) }):
			m = leastLoaded(func(mm int) bool { return pres.has(u, mm) && pres.has(v, mm) })
		case anyMachine(machines, func(mm int) bool { return pres.has(u, mm) || pres.has(v, mm) }):
			m = leastLoaded(func(mm int) bool { return pres.has(u, mm) || pres.has(v, mm) })
		default:
			m = leastLoaded(nil)
		}
		choice[e.E] = uint16(m)
		pres.set(u, m)
		pres.set(v, m)
		load[m]++
	}
	return choice
}

// streamEdge is one edge of a greedy partitioner's stream: its
// endpoints and E, its index in the canonical CSR order, where the
// partitioner writes the edge's machine.
type streamEdge struct {
	Src, Dst graph.VertexID
	E        uint32
}

// streamOrder lays g's edges out in the seeded pseudo-random order a
// greedy streaming partitioner consumes them in: one sequential sweep
// of the CSR, then a Fisher–Yates shuffle of that array in place, with
// the draws rng.Perm makes for the same stream (so position i holds
// CSR edge Perm's order[i]). The partitioner's own loop, whose every
// step depends on the last, then reads its edges sequentially.
func streamOrder(g *graph.Graph, seed, salt uint64) []streamEdge {
	if g.NumEdges() > math.MaxUint32 {
		panic(fmt.Sprintf("cluster: %d edges overflow a stream edge index", g.NumEdges()))
	}
	stream := make([]streamEdge, 0, g.NumEdges())
	adj := g.NewAdjReader()
	defer adj.Release()
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range adj.OutNeighbors(graph.VertexID(v)) {
			stream = append(stream, streamEdge{Src: graph.VertexID(v), Dst: d, E: uint32(len(stream))})
		}
	}
	rng.Shuffle(rng.Derive(seed, salt), stream)
	return stream
}

func anyMachine(machines int, pred func(int) bool) bool {
	for m := 0; m < machines; m++ {
		if pred(m) {
			return true
		}
	}
	return false
}

// Grid implements 2-D grid ingress: machines are arranged in an
// r×c grid with r·c >= machines; an edge (u,v) goes to the cell at
// (row(u), col(v)), folded onto a real machine by modulo when the grid
// has more cells than machines. Each vertex's replicas then lie in one
// row plus one column, bounding the replication factor by r+c-1.
type Grid struct{}

// Name implements Partitioner.
func (Grid) Name() string { return "grid" }

// Place implements Partitioner.
func (Grid) Place(g *graph.Graph, machines int, seed uint64) []uint16 {
	checkMachines(machines)
	rows := int(math.Sqrt(float64(machines)))
	if rows < 1 {
		rows = 1
	}
	cols := (machines + rows - 1) / rows
	return placeEdges(g, func(v graph.VertexID, dsts []graph.VertexID, out []uint16) {
		row := int(hash64(uint64(v)^seed) % uint64(rows))
		for k, d := range dsts {
			col := int(hash64(uint64(d)^(seed+0x51ed)) % uint64(cols))
			out[k] = uint16((row*cols + col) % machines)
		}
	})
}

// placeEdges returns a placement filled one source vertex at a time, in
// one serial pass over the CSR: fill(v, dsts, out) writes the machine of
// each of v's out-edges, out[k] for the edge to dsts[k], in the
// canonical edge order. The loop over v's edges is the partitioner's
// own, so no call is made per edge.
func placeEdges(g *graph.Graph, fill func(v graph.VertexID, dsts []graph.VertexID, out []uint16)) []uint16 {
	out := make([]uint16, g.NumEdges())
	r := g.NewAdjReader()
	defer r.Release()
	var at int64
	for v := 0; v < g.NumVertices(); v++ {
		dsts := r.OutNeighbors(graph.VertexID(v))
		end := at + int64(len(dsts))
		fill(graph.VertexID(v), dsts, out[at:end])
		at = end
	}
	return out
}

func checkMachines(machines int) {
	if machines < 1 || machines > MaxMachines {
		panic(fmt.Sprintf("cluster: machine count %d out of [1,%d]", machines, MaxMachines))
	}
}

// ByName returns the partitioner with the given name, defaulting to
// Random for an empty string.
func ByName(name string) (Partitioner, error) {
	switch name {
	case "", "random":
		return Random{}, nil
	case "oblivious":
		return Oblivious{}, nil
	case "grid":
		return Grid{}, nil
	case "hdrf":
		return HDRF{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown partitioner %q", name)
}
