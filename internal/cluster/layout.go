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
// immutable once built, apart from the one build of its views, and
// shared by all engine runs.
//
// NewLayout builds the ingress and nothing more: the machine owning
// every edge (placement), the per-vertex replica (presence) sets, the
// master replica of every vertex, each machine's master list, and each
// machine's edge and replica counts. That is everything a program
// without a gather phase (FrogWild, gossip) reads: a replica finds its
// local out-edges by filtering the graph's own CSR through the placement
// (LocalOutNeighbors, LocalOutDegrees).
//
// The per-machine views — each machine's vertex list, the replicas'
// local indices, and the local out- and in-CSRs — are built once, by
// the first View call from any goroutine. Only a gathering program
// (GraphLab PR) asks for them, so a layout that serves FrogWild alone
// never holds a copy of the graph.
type Layout struct {
	g           *graph.Graph
	machines    int
	partitioner string

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

	// presWord[v] is v's host set as one bitmask, kept for clusters of
	// at most 64 machines (nil beyond): the rank of a machine's bit in
	// it locates that machine's entry in v's presence list.
	presWord []uint64

	masters [][]uint32 // per machine, the vertices it masters, ascending
	edges   []int64    // per machine, the edges it owns
	present []int      // per machine, the vertices it hosts

	// The views and presLocal, aligned with presList (presLocal[j] is
	// v's dense local index on machine presList[j]), are nil until
	// buildViews. viewsBuilt is set once they are complete; viewsMu
	// serializes the build, so a build a failed graph read aborts leaves
	// nothing behind and the next View starts over.
	viewsBuilt atomic.Bool
	viewsMu    sync.Mutex
	views      []MachineView
	presLocal  []int32
}

// MachineView is one machine's local slice of the graph: the vertices
// present on the machine and the locally-owned edges, in local CSR
// form, out and in. A view exists only once Layout.View has built them
// all; it is read-only afterwards, and engine goroutines read views
// concurrently.
type MachineView struct {
	id  int
	lay *Layout // LocalIndex answers from its presence lists

	// verts lists present vertices in ascending order.
	verts []uint32

	outOff []int64
	outAdj []uint32
	inOff  []int64
	inAdj  []uint32
}

// NewLayout partitions g across the given number of machines using the
// partitioner and returns the realized layout. The seed feeds both the
// partitioner and the master-selection hash.
//
// Vertex ids are dense, so every step is a counting pass (count,
// prefix-sum, fill) rather than a hash-map build. Beyond the
// partitioner's own pass, the global CSR is read once, for presence and
// the per-vertex edge offsets. No per-machine view is built here (see
// View).
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
		g:           g,
		machines:    machines,
		partitioner: p.Name(),
		placement:   placement,
		edgeOff:     make([]int64, n+1),
		edges:       make([]int64, machines),
		present:     make([]int, machines),
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
	lay.presWord = pres.small
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

// View returns machine m's local view. The first call from any
// goroutine builds every machine's view (buildViews); later calls cost
// one atomic load.
func (l *Layout) View(m int) *MachineView {
	if !l.viewsBuilt.Load() {
		l.buildViews()
	}
	return &l.views[m]
}

// buildViews builds every machine's view from the ingress: local
// indices, vertex lists, out-CSRs and in-CSRs, in that order.
//
// Local indices: v's index on machine m is the number of lower-numbered
// vertices m hosts, so one ascending sweep of the presence lists assigns
// them and writes every view's verts.
//
// Out-CSRs: a machine's edges taken in CSR order are its local out-CSR
// already (sources ascend with their global ids), so one sweep of the
// global CSR appends each edge's destination to its machine's outAdj and
// counts the edge against its source's local index there, which srcLocal
// holds, refilled from the source's presence entries.
//
// In-CSRs: each machine's comes from its own out-CSR, with toLocal
// (refilled from the machine's verts) as the global→local map.
// In-degrees are counted into inOff[ld+1]; after the prefix sum
// inOff[ld] is ld's write cursor, and walking local sources in ascending
// order fills each in-list in the order the CSR lists its sources.
func (l *Layout) buildViews() {
	l.viewsMu.Lock()
	defer l.viewsMu.Unlock()
	if l.viewsBuilt.Load() {
		return
	}
	n := l.g.NumVertices()
	views := make([]MachineView, l.machines)
	for m := range views {
		views[m] = MachineView{
			id:     m,
			lay:    l,
			verts:  make([]uint32, l.present[m]),
			outOff: make([]int64, l.present[m]+1),
			outAdj: make([]uint32, 0, l.edges[m]),
		}
	}
	presLocal := make([]int32, len(l.presList))
	next := make([]int32, l.machines)
	for v := 0; v < n; v++ {
		for j := l.presOff[v]; j < l.presOff[v+1]; j++ {
			m := l.presList[j]
			presLocal[j] = next[m]
			views[m].verts[next[m]] = uint32(v)
			next[m]++
		}
	}

	r := l.g.NewAdjReader()
	defer r.Release()
	srcLocal := make([]int32, l.machines)
	for v := 0; v < n; v++ {
		for j := l.presOff[v]; j < l.presOff[v+1]; j++ {
			srcLocal[l.presList[j]] = presLocal[j]
		}
		place := l.placement[l.edgeOff[v]:l.edgeOff[v+1]]
		for k, d := range r.OutNeighbors(graph.VertexID(v)) {
			m := place[k]
			view := &views[m]
			view.outAdj = append(view.outAdj, d)
			view.outOff[srcLocal[m]+1]++
		}
	}

	toLocal := make([]int32, n)
	for m := range views {
		view := &views[m]
		for li := range view.verts {
			view.outOff[li+1] += view.outOff[li]
		}
		view.inOff = make([]int64, len(view.verts)+1)
		for li, v := range view.verts {
			toLocal[v] = int32(li)
		}
		for _, d := range view.outAdj {
			view.inOff[toLocal[d]+1]++
		}
		for li := range view.verts {
			view.inOff[li+1] += view.inOff[li]
		}
		view.inAdj = make([]uint32, len(view.outAdj))
		for li, s := range view.verts {
			for _, d := range view.outAdj[view.outOff[li]:view.outOff[li+1]] {
				ld := toLocal[d]
				view.inAdj[view.inOff[ld]] = s
				view.inOff[ld]++
			}
		}
		// Every cursor now holds its vertex's end, i.e. the next
		// vertex's start: shift them back into place.
		copy(view.inOff[1:], view.inOff)
		view.inOff[0] = 0
	}
	l.views, l.presLocal = views, presLocal
	l.viewsBuilt.Store(true)
}

// LocalOutNeighbors appends to dst the destinations of v's out-edges
// that machine m owns, read through r and filtered by the placement, and
// returns the grown slice. It holds what View(m).OutNeighborsLocal holds
// for v, in the same order, without building any view.
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
// number of v's out-edges m owns (View(m).LocalOutDegree of v), from one
// counting pass over v's placement; it reads no edge and builds no view.
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

// PartitionerName reports which ingress strategy built this layout.
func (l *Layout) PartitionerName() string { return l.partitioner }

// MasterOf returns the master machine of v. An isolated vertex (no
// edges at all) has no master: no machine hosts it, Presences(v) is
// empty and MasterOf reports the zero value, so callers that may see
// such vertices test Presences first. router.Partition's round-robin is
// the one place that gives them an owner.
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
// machine, presence sets match edge ownership, every hosted vertex's
// master is in its presence set, the views agree with the global graph
// and with the ingress counts, and the placement reads
// (LocalOutNeighbors, LocalOutDegrees) answer what the views hold. It
// builds the views, and is used by property tests.
func (l *Layout) Validate() error {
	n := l.g.NumVertices()
	var localEdges int64
	for m := 0; m < l.machines; m++ {
		v := l.View(m)
		localEdges += int64(len(v.outAdj))
		if len(v.outAdj) != len(v.inAdj) {
			return fmt.Errorf("cluster: machine %d out/in edge mismatch", m)
		}
		if int64(len(v.outAdj)) != l.edges[m] || len(v.verts) != l.present[m] {
			return fmt.Errorf("cluster: machine %d view holds %d edges and %d vertices, ingress counted %d and %d",
				m, len(v.outAdj), len(v.verts), l.edges[m], l.present[m])
		}
		for li, vert := range v.verts {
			if got, ok := v.LocalIndex(vert); !ok || got != int32(li) {
				return fmt.Errorf("cluster: machine %d local index broken at %d", m, vert)
			}
		}
	}
	if localEdges != l.g.NumEdges() {
		return fmt.Errorf("cluster: %d local edges != %d graph edges", localEdges, l.g.NumEdges())
	}
	seen := newPresenceSet(n, l.machines)
	for v := 0; v < n; v++ {
		pres := l.Presences(graph.VertexID(v))
		if len(pres) == 0 {
			if l.g.OutDegree(graph.VertexID(v)) > 0 || l.g.InDegree(graph.VertexID(v)) > 0 {
				return fmt.Errorf("cluster: vertex %d has edges but no presence", v)
			}
			continue
		}
		if pres[0] != l.master[v] {
			return fmt.Errorf("cluster: vertex %d master %d not first in presence list", v, l.master[v])
		}
		for _, m := range pres {
			if seen.has(graph.VertexID(v), int(m)) {
				return fmt.Errorf("cluster: vertex %d duplicated presence on %d", v, m)
			}
			seen.set(graph.VertexID(v), int(m))
			verts := l.views[m].verts
			if li, ok := l.views[m].LocalIndex(graph.VertexID(v)); !ok || int(li) >= len(verts) || verts[li] != uint32(v) {
				return fmt.Errorf("cluster: vertex %d listed on machine %d but absent from view", v, m)
			}
		}
	}
	// Each host's placement-filtered out-edges are its view's, and the
	// hosts' local out-degrees sum to the global out-degree.
	r := l.g.NewAdjReader()
	defer r.Release()
	deg := make([]int, l.machines)
	var nbrs []graph.VertexID
	for v := 0; v < n; v++ {
		l.LocalOutDegrees(graph.VertexID(v), deg)
		sum := 0
		for _, m := range l.Presences(graph.VertexID(v)) {
			view := &l.views[m]
			li, _ := view.LocalIndex(graph.VertexID(v))
			nbrs = l.LocalOutNeighbors(r, graph.VertexID(v), int(m), nbrs[:0])
			if deg[m] != view.LocalOutDegree(li) || !slices.Equal(nbrs, view.OutNeighborsLocal(li)) {
				return fmt.Errorf("cluster: vertex %d on machine %d: placement reads %d out-edges %v, view holds %v",
					v, m, deg[m], nbrs, view.OutNeighborsLocal(li))
			}
			sum += deg[m]
		}
		if sum != l.g.OutDegree(graph.VertexID(v)) {
			return fmt.Errorf("cluster: vertex %d local out-degree sum %d != %d",
				v, sum, l.g.OutDegree(graph.VertexID(v)))
		}
	}
	return nil
}

// Verts returns the present vertices in ascending order. The slice
// aliases internal storage.
func (mv *MachineView) Verts() []uint32 { return mv.verts }

// LocalIndex returns the machine-local dense index of v and whether v
// is present on this machine, read off v's presence entry: the master
// sits first, and a mirror's slot is its rank among v's hosts (a
// popcount of the presence word up to 64 machines, a binary search of
// the ascending mirror list beyond).
func (mv *MachineView) LocalIndex(v graph.VertexID) (int32, bool) {
	l, m := mv.lay, mv.id
	lo, hi := l.presOff[v], l.presOff[v+1]
	if lo == hi {
		return 0, false
	}
	mst := int(l.presList[lo])
	if m == mst {
		return l.presLocal[lo], true
	}
	if l.presWord != nil {
		bit := uint64(1) << uint(m)
		w := l.presWord[v]
		if w&bit == 0 {
			return 0, false
		}
		// Hosts below m, the master among them or not; the master's
		// own slot is taken out of the ascending order.
		j := lo + int64(popcount(w&(bit-1)))
		if mst > m {
			j++
		}
		return l.presLocal[j], true
	}
	k, ok := slices.BinarySearch(l.presList[lo+1:hi], uint16(m))
	if !ok {
		return 0, false
	}
	return l.presLocal[lo+1+int64(k)], true
}

// OutNeighborsLocal returns the destinations of the machine's local
// out-edges of the vertex at local index li.
func (mv *MachineView) OutNeighborsLocal(li int32) []uint32 {
	return mv.outAdj[mv.outOff[li]:mv.outOff[li+1]]
}

// InNeighborsLocal returns the sources of the machine's local in-edges
// of the vertex at local index li.
func (mv *MachineView) InNeighborsLocal(li int32) []uint32 {
	return mv.inAdj[mv.inOff[li]:mv.inOff[li+1]]
}

// LocalOutDegree returns the local out-degree of the vertex at local
// index li.
func (mv *MachineView) LocalOutDegree(li int32) int {
	return int(mv.outOff[li+1] - mv.outOff[li])
}

// NumPresent returns the number of vertices present on this machine.
func (mv *MachineView) NumPresent() int { return len(mv.verts) }
