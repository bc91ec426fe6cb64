package cluster

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Layout is the realized placement of a graph on a cluster: the
// edge→machine assignment, the per-vertex replica (presence) sets, the
// master replica of every vertex, and per-machine local sub-graphs in
// CSR form. It is immutable once built and shared by all engine runs;
// the local in-CSRs are the one part filled in later, once, by the
// first reader of in-edges (see buildInCSRs).
type Layout struct {
	g           *graph.Graph
	machines    int
	partitioner string

	master []uint16 // master machine per vertex

	// presence lists: machines hosting v are
	// presList[presOff[v]:presOff[v+1]], master first. presLocal is
	// aligned with presList: presLocal[j] is v's dense local index on
	// machine presList[j].
	presOff   []int64
	presList  []uint16
	presLocal []int32

	// presWord[v] is v's host set as one bitmask, kept for clusters of
	// at most 64 machines (nil beyond): the rank of a machine's bit in
	// it locates that machine's entry in v's presence list.
	presWord []uint64

	views []MachineView

	// inOnce guards the one build of every view's inOff/inAdj.
	inOnce sync.Once
}

// MachineView is one machine's local slice of the graph: the vertices
// present on the machine and the locally-owned edges, in local CSR
// form. Engine goroutines operate on views concurrently; views are
// read-only after construction, apart from the in-CSR's one guarded
// build.
type MachineView struct {
	id  int
	lay *Layout // LocalIndex answers from its presence lists

	// verts lists present vertices in ascending order.
	verts []uint32

	outOff []int64
	outAdj []uint32
	inOff  []int64 // nil until Layout.buildInCSRs
	inAdj  []uint32

	masters []uint32 // vertices whose master replica is here
}

// NewLayout partitions g across the given number of machines using the
// partitioner and returns the realized layout. The seed feeds both the
// partitioner and the master-selection hash.
//
// Vertex ids are dense, so every step is a counting pass (count,
// prefix-sum, fill) rather than a hash-map build. Beyond the
// partitioner's own pass, the global CSR is read twice: once for
// presence, once to split its edges into the machines' local out-CSRs,
// which they already are in CSR order. The local in-CSRs are not built
// here: only a gathering program reads them, and the first read builds
// them (buildInCSRs).
func NewLayout(g *graph.Graph, machines int, p Partitioner, seed uint64) (*Layout, error) {
	lay, placement, err := ingress(g, machines, p, seed)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()

	// Local indices: v's index on machine m is the number of
	// lower-numbered vertices m hosts, so one ascending sweep of the
	// presence lists assigns them and writes every view's verts.
	present := make([]int, machines)
	for _, m := range lay.presList {
		present[m]++
	}
	lay.views = make([]MachineView, machines)
	for m := range lay.views {
		lay.views[m] = MachineView{
			id:     m,
			lay:    lay,
			verts:  make([]uint32, present[m]),
			outOff: make([]int64, present[m]+1),
		}
	}
	lay.presLocal = make([]int32, len(lay.presList))
	next := make([]int32, machines)
	for v := 0; v < n; v++ {
		for j := lay.presOff[v]; j < lay.presOff[v+1]; j++ {
			m := lay.presList[j]
			lay.presLocal[j] = next[m]
			lay.views[m].verts[next[m]] = uint32(v)
			next[m]++
		}
	}

	// Local out-CSRs. A machine's edges taken in CSR order are its
	// local out-CSR already (sources ascend with their global ids), so
	// one sweep appends each edge's destination to its machine's outAdj
	// and counts the edge against its source's local index there, which
	// srcLocal holds, refilled from the source's presence entries.
	edges := make([]int, machines)
	for _, m := range placement {
		edges[m]++
	}
	for m := range lay.views {
		lay.views[m].outAdj = make([]uint32, 0, edges[m])
	}
	r := g.NewAdjReader()
	defer r.Release()
	srcLocal := make([]int32, machines)
	i := 0
	for v := 0; v < n; v++ {
		for j := lay.presOff[v]; j < lay.presOff[v+1]; j++ {
			srcLocal[lay.presList[j]] = lay.presLocal[j]
		}
		for _, d := range r.OutNeighbors(graph.VertexID(v)) {
			m := placement[i]
			view := &lay.views[m]
			view.outAdj = append(view.outAdj, d)
			view.outOff[srcLocal[m]+1]++
			i++
		}
	}

	masters := lay.masterLists()
	for m := range lay.views {
		view := &lay.views[m]
		for li := range view.verts {
			view.outOff[li+1] += view.outOff[li]
		}
		view.masters = masters[m]
	}
	return lay, nil
}

// buildInCSRs builds every view's local in-CSR the first time it is
// called, and afterwards costs one atomic load. The in-edge readers
// (InNeighborsLocal, LocalInDegree, Validate) call it first. Only a
// gathering program reads in-edges, so a layout that serves FrogWild
// alone never holds them.
//
// Each machine's in-CSR comes from its own out-CSR, with toLocal
// (refilled from the machine's verts) as the global→local map.
// In-degrees are counted into inOff[ld+1]; after the prefix sum
// inOff[ld] is ld's write cursor, and walking local sources in
// ascending order fills each in-list in the order the CSR lists its
// sources.
func (l *Layout) buildInCSRs() {
	l.inOnce.Do(func() {
		toLocal := make([]int32, l.g.NumVertices())
		for m := range l.views {
			view := &l.views[m]
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
	})
}

// ingress decides where everything lives: it runs the partitioner,
// derives each vertex's presence set from the placement and picks the
// masters. The returned layout has no views yet.
func ingress(g *graph.Graph, machines int, p Partitioner, seed uint64) (*Layout, []uint16, error) {
	if machines < 1 || machines > MaxMachines {
		return nil, nil, fmt.Errorf("cluster: machine count %d out of range", machines)
	}
	if g.NumVertices() == 0 {
		return nil, nil, fmt.Errorf("cluster: empty graph")
	}
	if p == nil {
		p = Random{}
	}
	placement := p.Place(g, machines, seed)
	if int64(len(placement)) != g.NumEdges() {
		return nil, nil, fmt.Errorf("cluster: partitioner %s returned %d placements for %d edges",
			p.Name(), len(placement), g.NumEdges())
	}

	n := g.NumVertices()
	pres := newPresenceSet(n, machines)
	r := g.NewAdjReader()
	defer r.Release()
	i := 0
	for v := 0; v < n; v++ {
		for _, d := range r.OutNeighbors(graph.VertexID(v)) {
			m := int(placement[i])
			if m >= machines {
				return nil, nil, fmt.Errorf("cluster: partitioner %s placed edge %d on machine %d of %d",
					p.Name(), i, m, machines)
			}
			pres.set(graph.VertexID(v), m)
			pres.set(d, m)
			i++
		}
	}

	// Presence lists and master selection. The master is a hash-chosen
	// member of the presence set, mirroring PowerGraph (the master is
	// always co-located with at least one edge of the vertex). A vertex
	// with no edges at all — possible only when dangling vertices are
	// allowed — is hosted nowhere: its presence list stays empty and no
	// master is chosen for it (see MasterOf).
	lay := &Layout{g: g, machines: machines, partitioner: p.Name(), presWord: pres.small}
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
	return lay, placement, nil
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

// View returns machine m's local view.
func (l *Layout) View(m int) *MachineView { return &l.views[m] }

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
		e := int64(len(l.views[m].outAdj))
		totE += e
		if e > maxE {
			maxE = e
		}
		k := len(l.views[m].masters)
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
// master is in its presence set, and local CSRs agree with the global
// graph. It is used by property tests.
func (l *Layout) Validate() error {
	l.buildInCSRs()
	n := l.g.NumVertices()
	var localEdges int64
	for m := 0; m < l.machines; m++ {
		v := &l.views[m]
		localEdges += int64(len(v.outAdj))
		if len(v.outAdj) != len(v.inAdj) {
			return fmt.Errorf("cluster: machine %d out/in edge mismatch", m)
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
	// Local out-degrees must sum to global out-degree per vertex.
	sum := make([]int64, n)
	for m := 0; m < l.machines; m++ {
		view := &l.views[m]
		for li, vert := range view.verts {
			sum[vert] += view.outOff[li+1] - view.outOff[li]
		}
	}
	for v := 0; v < n; v++ {
		if sum[v] != int64(l.g.OutDegree(graph.VertexID(v))) {
			return fmt.Errorf("cluster: vertex %d local out-degree sum %d != %d",
				v, sum[v], l.g.OutDegree(graph.VertexID(v)))
		}
	}
	return nil
}

// ID returns the machine's id.
func (mv *MachineView) ID() int { return mv.id }

// Verts returns the present vertices in ascending order. The slice
// aliases internal storage.
func (mv *MachineView) Verts() []uint32 { return mv.verts }

// NumLocalEdges returns the number of edges owned by this machine.
func (mv *MachineView) NumLocalEdges() int64 { return int64(len(mv.outAdj)) }

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
// of the vertex at local index li. The layout's first in-edge read
// builds the in-CSRs of all its views; it is safe from any goroutine.
func (mv *MachineView) InNeighborsLocal(li int32) []uint32 {
	mv.lay.buildInCSRs()
	return mv.inAdj[mv.inOff[li]:mv.inOff[li+1]]
}

// LocalOutDegree returns the local out-degree of the vertex at local
// index li.
func (mv *MachineView) LocalOutDegree(li int32) int {
	return int(mv.outOff[li+1] - mv.outOff[li])
}

// LocalInDegree returns the local in-degree of the vertex at local
// index li.
func (mv *MachineView) LocalInDegree(li int32) int {
	mv.lay.buildInCSRs()
	return int(mv.inOff[li+1] - mv.inOff[li])
}

// Masters returns the vertices mastered on this machine, ascending.
func (mv *MachineView) Masters() []uint32 { return mv.masters }

// NumPresent returns the number of vertices present on this machine.
func (mv *MachineView) NumPresent() int { return len(mv.verts) }
