package cluster

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Layout is the realized placement of a graph on a cluster. It is
// immutable once built, apart from the one build of its in-index, and
// shared by all engine runs.
//
// NewLayout builds the ingress and nothing more: the machine owning
// every edge (placement), the per-vertex replica (presence) sets, the
// master replica of every vertex, each machine's master list, and each
// machine's edge and replica counts. A replica finds its local
// out-edges by filtering the graph's own CSR through the placement
// (LocalOutNeighbors, LocalOutDegrees); no program needs more to
// scatter.
//
// The in-index (InIndex), every vertex's in-edges tagged with the
// machine owning each, is built once, by the first InIndex call from
// any goroutine. Only a gathering program (GraphLab PR) asks for it, so
// a layout that serves FrogWild alone never holds a copy of the graph.
type Layout struct {
	g        *graph.Graph
	machines int

	// placement[edgeOff[v]+i] is the machine owning v's i'th out-edge,
	// in the order the CSR lists them: the partitioner's canonical edge
	// order, whatever the graph's row order.
	placement []uint16
	edgeOff   []int64

	master []uint16 // master machine per vertex

	// presence lists: machines hosting v are
	// presList[presOff[v]:presOff[v+1]], master first.
	presOff  []int64
	presList []uint16

	masters [][]uint32 // per machine, the vertices it masters, ascending
	edges   []int64    // per machine, the edges it owns
	present []int      // per machine, the vertices it hosts

	// in is nil until the first InIndex call builds it. inMu
	// serializes the build, so a build a failed graph read aborts
	// leaves nothing behind and the next call starts over.
	inMu sync.Mutex
	in   atomic.Pointer[InIndex]
}

// InIndex lists every vertex's in-edges for a gathering program: the
// sources of v's in-edges, grouped by the machine owning the edge in
// ascending machine order, each group in the order a sweep of the CSR
// meets its edges (sources ascending, a repeated edge as often as the
// CSR lists it), and beside each source the machine owning its edge.
// It is read-only once built.
type InIndex struct {
	off     []int64
	src     []graph.VertexID
	machine []uint16
}

// In returns the sources of v's in-edges and, aligned with them, the
// machine owning each edge. Both slices alias internal storage.
func (x *InIndex) In(v graph.VertexID) ([]graph.VertexID, []uint16) {
	lo, hi := x.off[v], x.off[v+1]
	return x.src[lo:hi], x.machine[lo:hi]
}

// NewLayout partitions g across the given number of machines using the
// partitioner and returns the realized layout. The seed feeds both the
// partitioner and the master-selection hash.
//
// Vertex ids are dense, so every step is a counting pass (count,
// prefix-sum, fill) rather than a hash-map build. Beyond the
// partitioner's own pass, the global CSR is read once, for presence and
// the per-vertex edge offsets. The in-index is not built here (see
// InIndex).
func NewLayout(g *graph.Graph, machines int, p Partitioner, seed uint64) (*Layout, error) {
	if machines < 1 || machines > MaxMachines {
		return nil, fmt.Errorf("cluster: machine count %d out of range", machines)
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("cluster: empty graph")
	}
	if p == nil {
		p = Random{}
	}
	placement := p.Place(g, machines, seed)
	if int64(len(placement)) != g.NumEdges() {
		return nil, fmt.Errorf("cluster: partitioner %s returned %d placements for %d edges",
			p.Name(), len(placement), g.NumEdges())
	}

	n := g.NumVertices()
	lay := &Layout{
		g:         g,
		machines:  machines,
		placement: placement,
		edgeOff:   make([]int64, n+1),
		edges:     make([]int64, machines),
		present:   make([]int, machines),
	}
	pres := newPresenceSet(n, machines)
	r := g.NewAdjReader()
	defer r.Release()
	i := 0
	for v := 0; v < n; v++ {
		for _, d := range r.OutNeighbors(graph.VertexID(v)) {
			m := int(placement[i])
			if m >= machines {
				return nil, fmt.Errorf("cluster: partitioner %s placed edge %d on machine %d of %d",
					p.Name(), i, m, machines)
			}
			pres.set(graph.VertexID(v), m)
			pres.set(d, m)
			lay.edges[m]++
			i++
		}
		lay.edgeOff[v+1] = int64(i)
	}

	// Presence lists and master selection. The master is a hash-chosen
	// member of the presence set, mirroring PowerGraph (the master is
	// always co-located with at least one edge of the vertex). A vertex
	// with no edges at all — possible only when dangling vertices are
	// allowed — is hosted nowhere: its presence list stays empty and no
	// master is chosen for it (see MasterOf).
	lay.presOff = make([]int64, n+1)
	for v := 0; v < n; v++ {
		lay.presOff[v+1] = lay.presOff[v] + int64(pres.count(graph.VertexID(v)))
	}
	lay.presList = make([]uint16, lay.presOff[n])
	lay.master = make([]uint16, n)
	for v := 0; v < n; v++ {
		span := lay.presList[lay.presOff[v]:lay.presOff[v+1]]
		if len(span) == 0 {
			continue
		}
		pres.collect(graph.VertexID(v), span)
		// collect wrote the hosts ascending; rotating the master to
		// the front leaves the mirrors ascending behind it.
		pick := int(hash64(uint64(v)^(seed*0x2545f4914f6cdd1d)) % uint64(len(span)))
		mst := span[pick]
		copy(span[1:pick+1], span[:pick])
		span[0] = mst
		lay.master[v] = mst
	}
	for _, m := range lay.presList {
		lay.present[m]++
	}
	lay.masters = lay.masterLists()
	return lay, nil
}

// InIndex returns the layout's in-index. The first call from any
// goroutine builds it (buildInIndex); later calls cost one atomic load.
func (l *Layout) InIndex() *InIndex {
	if x := l.in.Load(); x != nil {
		return x
	}
	l.inMu.Lock()
	defer l.inMu.Unlock()
	if x := l.in.Load(); x != nil {
		return x
	}
	x := l.buildInIndex()
	l.in.Store(x)
	return x
}

// buildInIndex builds the in-index in counting passes. The graph's
// in-degrees size every vertex's range; after the prefix sum off[d] is
// d's write cursor, and one sweep of the CSR and the placement writes
// each edge's source and machine at its destination's cursor, so every
// range holds its in-edges in sweep order. A stable counting pass per
// vertex, over the machines hosting it in ascending order, then groups
// a range by machine; a range already grouped (every range, on one
// machine) is left as it is.
func (l *Layout) buildInIndex() *InIndex {
	n := l.g.NumVertices()
	x := &InIndex{
		off:     make([]int64, n+1),
		src:     make([]graph.VertexID, l.g.NumEdges()),
		machine: make([]uint16, l.g.NumEdges()),
	}
	for v := 0; v < n; v++ {
		x.off[v+1] = x.off[v] + int64(l.g.InDegree(graph.VertexID(v)))
	}
	r := l.g.NewAdjReader()
	defer r.Release()
	i := 0
	for v := 0; v < n; v++ {
		for _, d := range r.OutNeighbors(graph.VertexID(v)) {
			at := x.off[d]
			x.src[at] = graph.VertexID(v)
			x.machine[at] = l.placement[i]
			x.off[d]++
			i++
		}
	}
	// Every cursor now holds its vertex's end, i.e. the next vertex's
	// start: shift them back into place.
	copy(x.off[1:], x.off)
	x.off[0] = 0

	start := make([]int64, l.machines)
	var hosts []uint16
	var src []graph.VertexID
	var machine []uint16
	for v := 0; v < n; v++ {
		vs, vm := x.In(graph.VertexID(v))
		if slices.IsSorted(vm) {
			continue
		}
		// The master leads the presence list and the mirrors ascend
		// behind it: put it back among them.
		hosts = append(hosts[:0], l.Presences(graph.VertexID(v))...)
		k := 1
		for k < len(hosts) && hosts[k] < hosts[0] {
			k++
		}
		mst := hosts[0]
		copy(hosts, hosts[1:k])
		hosts[k-1] = mst

		for _, m := range hosts {
			start[m] = 0
		}
		for _, m := range vm {
			start[m]++
		}
		var at int64
		for _, m := range hosts {
			at, start[m] = at+start[m], at
		}
		src = append(src[:0], vs...)
		machine = append(machine[:0], vm...)
		for j, m := range machine {
			vs[start[m]], vm[start[m]] = src[j], m
			start[m]++
		}
	}
	return x
}

// LocalOutNeighbors appends to dst the destinations of v's out-edges
// that machine m owns, read through r and filtered by the placement, and
// returns the grown slice, in the order the CSR lists them.
func (l *Layout) LocalOutNeighbors(r *graph.AdjReader, v graph.VertexID, m int, dst []graph.VertexID) []graph.VertexID {
	place := l.placement[l.edgeOff[v]:l.edgeOff[v+1]]
	for k, d := range r.OutNeighbors(v) {
		if int(place[k]) == m {
			dst = append(dst, d)
		}
	}
	return dst
}

// LocalOutDegrees sets deg[m], for every machine m hosting v, to the
// number of v's out-edges m owns, from one counting pass over v's
// placement; it reads no edge.
// deg is indexed by machine; the entries of machines not hosting v are
// left as they were.
func (l *Layout) LocalOutDegrees(v graph.VertexID, deg []int) {
	for _, m := range l.Presences(v) {
		deg[m] = 0
	}
	for _, m := range l.placement[l.edgeOff[v]:l.edgeOff[v+1]] {
		deg[m]++
	}
}

// masterLists returns the vertices mastered on each machine, ascending.
// An isolated vertex, which no machine hosts, is on no list.
func (l *Layout) masterLists() [][]uint32 {
	count := make([]int, l.machines)
	for v, m := range l.master {
		if l.presOff[v+1] > l.presOff[v] {
			count[m]++
		}
	}
	masters := make([][]uint32, l.machines)
	for m := range masters {
		masters[m] = make([]uint32, 0, count[m])
	}
	for v, m := range l.master {
		if l.presOff[v+1] > l.presOff[v] {
			masters[m] = append(masters[m], uint32(v))
		}
	}
	return masters
}

// presenceSet tracks which machines host each vertex, with a fast
// single-word path for clusters of at most 64 machines. It is the one
// bitset of the package: NewLayout, the greedy partitioners and
// Validate all use it.
type presenceSet struct {
	machines int
	words    int
	small    []uint64   // machines <= 64
	big      [][]uint64 // otherwise, lazily allocated per vertex
}

func newPresenceSet(n, machines int) *presenceSet {
	p := &presenceSet{machines: machines, words: (machines + 63) / 64}
	if machines <= 64 {
		p.small = make([]uint64, n)
	} else {
		p.big = make([][]uint64, n)
	}
	return p
}

func (p *presenceSet) set(v graph.VertexID, m int) {
	if p.small != nil {
		p.small[v] |= 1 << uint(m)
		return
	}
	if p.big[v] == nil {
		p.big[v] = make([]uint64, p.words)
	}
	p.big[v][m/64] |= 1 << uint(m%64)
}

func (p *presenceSet) has(v graph.VertexID, m int) bool {
	if p.small != nil {
		return p.small[v]&(1<<uint(m)) != 0
	}
	b := p.big[v]
	return b != nil && b[m/64]&(1<<uint(m%64)) != 0
}

func (p *presenceSet) count(v graph.VertexID) int {
	if p.small != nil {
		return popcount(p.small[v])
	}
	if p.big[v] == nil {
		return 0
	}
	c := 0
	for _, w := range p.big[v] {
		c += popcount(w)
	}
	return c
}

// collect fills dst (of length count(v)) with the machines hosting v in
// ascending order.
func (p *presenceSet) collect(v graph.VertexID, dst []uint16) {
	i := 0
	if p.small != nil {
		w := p.small[v]
		for w != 0 {
			m := trailingZeros(w)
			dst[i] = uint16(m)
			i++
			w &= w - 1
		}
		return
	}
	if p.big[v] == nil {
		return
	}
	for wi, w := range p.big[v] {
		for w != 0 {
			m := wi*64 + trailingZeros(w)
			dst[i] = uint16(m)
			i++
			w &= w - 1
		}
	}
}

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// Graph returns the underlying graph.
func (l *Layout) Graph() *graph.Graph { return l.g }

// NumMachines returns the cluster size.
func (l *Layout) NumMachines() int { return l.machines }

// MasterOf returns the master machine of v. An isolated vertex (no
// edges at all) has no master: no machine hosts it, Presences(v) is
// empty and MasterOf reports the zero value, so callers that may see
// such vertices test Presences first. router.Stride's v mod S ownership
// is the one place that gives them an owner.
func (l *Layout) MasterOf(v graph.VertexID) uint16 { return l.master[v] }

// Presences returns the machines hosting v, master first, mirrors in
// ascending order; it is empty for an isolated vertex. The slice
// aliases internal storage.
func (l *Layout) Presences(v graph.VertexID) []uint16 {
	return l.presList[l.presOff[v]:l.presOff[v+1]]
}

// Masters returns the vertices mastered on machine m, ascending. The
// slice aliases internal storage.
func (l *Layout) Masters(m int) []uint32 { return l.masters[m] }

// ReplicationFactor returns the average number of replicas per vertex
// that is hosted anywhere (PowerGraph's λ).
func (l *Layout) ReplicationFactor() float64 {
	hosted := 0
	for v := 0; v < l.g.NumVertices(); v++ {
		if l.presOff[v+1] > l.presOff[v] {
			hosted++
		}
	}
	if hosted == 0 {
		return 0
	}
	return float64(len(l.presList)) / float64(hosted)
}

// CutStats summarizes partition quality.
type CutStats struct {
	Machines          int
	ReplicationFactor float64
	// EdgeImbalance is max/mean edges per machine (1.0 = perfect).
	EdgeImbalance float64
	// MasterImbalance is max/mean masters per machine.
	MasterImbalance float64
}

// Stats computes partition-quality statistics.
func (l *Layout) Stats() CutStats {
	s := CutStats{Machines: l.machines, ReplicationFactor: l.ReplicationFactor()}
	maxE, totE := int64(0), int64(0)
	maxM, totM := 0, 0
	for m := 0; m < l.machines; m++ {
		e := l.edges[m]
		totE += e
		if e > maxE {
			maxE = e
		}
		k := len(l.masters[m])
		totM += k
		if k > maxM {
			maxM = k
		}
	}
	if totE > 0 {
		s.EdgeImbalance = float64(maxE) * float64(l.machines) / float64(totE)
	}
	if totM > 0 {
		s.MasterImbalance = float64(maxM) * float64(l.machines) / float64(totM)
	}
	return s
}

// Validate checks layout invariants: every edge is owned by exactly one
// machine of the cluster, the per-machine edge and replica counts match
// the placement, every vertex's presence list is exactly the set of
// machines owning one of its edges, every hosted vertex's master leads
// that list, and the hosts' local out-degrees (LocalOutDegrees and
// LocalOutNeighbors) sum to the global out-degree. It is used by
// property tests.
func (l *Layout) Validate() error {
	n := l.g.NumVertices()
	if int64(len(l.placement)) != l.g.NumEdges() {
		return fmt.Errorf("cluster: %d placements for %d edges", len(l.placement), l.g.NumEdges())
	}
	owners := newPresenceSet(n, l.machines)
	edges := make([]int64, l.machines)
	r := l.g.NewAdjReader()
	defer r.Release()
	for v := 0; v < n; v++ {
		place := l.placement[l.edgeOff[v]:l.edgeOff[v+1]]
		out := r.OutNeighbors(graph.VertexID(v))
		if len(place) != len(out) {
			return fmt.Errorf("cluster: vertex %d has %d out-edges, %d placements", v, len(out), len(place))
		}
		for k, d := range out {
			m := int(place[k])
			if m >= l.machines {
				return fmt.Errorf("cluster: edge %d->%d on machine %d of %d", v, d, m, l.machines)
			}
			owners.set(graph.VertexID(v), m)
			owners.set(d, m)
			edges[m]++
		}
	}
	present := make([]int, l.machines)
	deg := make([]int, l.machines)
	var nbrs []graph.VertexID
	for v := 0; v < n; v++ {
		pres := l.Presences(graph.VertexID(v))
		if len(pres) != owners.count(graph.VertexID(v)) {
			return fmt.Errorf("cluster: vertex %d listed on %d machines, owners of its edges are %d", v, len(pres), owners.count(graph.VertexID(v)))
		}
		if len(pres) == 0 {
			continue
		}
		if pres[0] != l.master[v] {
			return fmt.Errorf("cluster: vertex %d master %d not first in presence list", v, l.master[v])
		}
		for k := 2; k < len(pres); k++ {
			if pres[k] <= pres[k-1] {
				return fmt.Errorf("cluster: vertex %d mirrors %v not strictly ascending", v, pres[1:])
			}
		}
		if slices.Contains(pres[1:], pres[0]) {
			return fmt.Errorf("cluster: vertex %d master %d also listed as a mirror", v, pres[0])
		}
		l.LocalOutDegrees(graph.VertexID(v), deg)
		sum := 0
		for _, m := range pres {
			if !owners.has(graph.VertexID(v), int(m)) {
				return fmt.Errorf("cluster: vertex %d listed on machine %d, which owns none of its edges", v, m)
			}
			present[m]++
			nbrs = l.LocalOutNeighbors(r, graph.VertexID(v), int(m), nbrs[:0])
			if len(nbrs) != deg[m] {
				return fmt.Errorf("cluster: vertex %d on machine %d: %d local out-edges, degree %d", v, m, len(nbrs), deg[m])
			}
			sum += deg[m]
		}
		if sum != l.g.OutDegree(graph.VertexID(v)) {
			return fmt.Errorf("cluster: vertex %d local out-degree sum %d != %d",
				v, sum, l.g.OutDegree(graph.VertexID(v)))
		}
	}
	if !slices.Equal(edges, l.edges) || !slices.Equal(present, l.present) {
		return fmt.Errorf("cluster: placement gives %v edges and %v replicas per machine, ingress counted %v and %v",
			edges, present, l.edges, l.present)
	}
	return nil
}
