package gas

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// rng derivation domains, keeping per-purpose streams independent.
const (
	rngDomainApply   = 0xA11
	rngDomainScatter = 0x5CA
)

// scatterPurpose packs the scatter domain, superstep and machine into
// one label, so each machine's scatter phase draws one independent
// stream per work chunk, derived from (seed, purpose, chunk). Supersteps
// fit 24 bits and machines 16 (cluster.MaxMachines is far below that),
// so the packing is injective for every realizable run.
func scatterPurpose(step, machine int) uint64 {
	return rngDomainScatter<<40 | uint64(step)<<16 | uint64(machine)
}

// perEntryHeaderBytes is the wire overhead metered per message, sync or
// gather entry (a packed vertex id).
const perEntryHeaderBytes = 4

// Options configures an engine run.
type Options struct {
	// PS is the mirror synchronization probability, the paper's ps.
	// 1 reproduces stock PowerGraph behaviour.
	PS float64
	// Seed drives all engine randomness.
	Seed uint64
	// MaxSupersteps bounds the run; required (> 0).
	MaxSupersteps int
	// AlwaysActive runs Apply for every vertex every superstep
	// (fixed-iteration power iteration) instead of message-driven
	// activation.
	AlwaysActive bool
	// StopWhen, if non-nil, is evaluated after each superstep with the
	// superstep index and that superstep's aggregate; returning true
	// ends the run early.
	StopWhen func(superstep int, aggregate float64) bool
	// IndependentErasures selects the paper's Example 9 erasure model
	// for Splitter programs: when no synchronized replica of a vertex
	// has local out-edges, the state is simply stranded (walkers are
	// lost), instead of force-enabling one replica (the default,
	// Example 10 "At Least One Out-Edge Per Node").
	IndependentErasures bool
	// Cost converts metered work into simulated seconds; the zero
	// value selects cluster.DefaultCostModel.
	Cost cluster.CostModel
}

// RunStats reports what a run did and what it cost.
type RunStats struct {
	// Supersteps actually executed.
	Supersteps int
	// Net aggregates all traffic sent during the run.
	Net cluster.NetworkReport
	// SimSeconds is the simulated elapsed time: per-superstep max over
	// machines plus barrier, summed.
	SimSeconds float64
	// SimSecondsPerStep breaks SimSeconds down by superstep.
	SimSecondsPerStep []float64
	// CPUSeconds is total simulated CPU time summed over machines (the
	// paper's Figure 1(d) metric).
	CPUSeconds float64
	// WallSeconds is the real elapsed time of the simulation itself.
	WallSeconds float64
	// AggregateByStep holds each superstep's Context.Aggregate sum.
	AggregateByStep []float64
	// ActiveByStep holds the number of vertices applied per superstep.
	ActiveByStep []int64
	// ReplicationFactor echoes the layout's replication factor.
	ReplicationFactor float64
}

// Engine executes a Program over a cluster Layout.
type Engine[V, M any] struct {
	lay  *cluster.Layout
	prog Program[V, M]
	opts Options

	n        int
	machines int
	sizes    Sizes

	gatherer  Gatherer[V]
	splitter  Splitter[V]
	finalizer Finalizer[V, M]

	// in is the layout's in-index, for a Gatherer; nil for every other
	// program, which never makes the layout build it.
	in *cluster.InIndex

	// Master state per vertex; written only by the master's machine.
	state []V

	active     []bool
	nextActive []bool

	inbox      []M
	hasMsg     []bool
	nextInbox  []M
	nextHasMsg []bool

	// pending counts the vertices that take part in the next superstep
	// (activated or holding a message), maintained incrementally by the
	// routing phase so quiescence detection is O(1) instead of an O(n)
	// scan per superstep.
	pending int64

	// gathered[v] is v's summed accumulator for this superstep's apply,
	// written by the gather phase at v's master. Nil unless the program
	// is a Gatherer.
	gathered []float64
	// gatherCharges[m] is the gather work done on machine m this
	// superstep, charged from any master's machine.
	gatherCharges []gatherCharge

	// syncOut[master][target] collects the live sync/share deliveries
	// produced in apply, consumed by the target machine in scatter: every
	// delivery but a Splitter share that Split left empty. Each entry's
	// pos is its index among all the deliveries master sent target this
	// superstep, idle ones included.
	syncOut [][][]syncEntry[V]
	// sent[master*machines+target] counts those deliveries, live and
	// idle, and idleOps[master*machines+target] sums the local out-edges
	// of the idle ones: the target is charged for them without reading
	// them.
	sent    []int
	idleOps []int64

	// outbox[machine][master] collects the locally-combined scatter
	// messages machine sends to vertices mastered on master.
	outbox [][]map[graph.VertexID]M

	// Meters: per-machine this superstep, plus run totals.
	stepMeters []cluster.MachineMeter
	runMeters  []cluster.MachineMeter

	aggregates []float64

	// Fixed per-machine chunkings of the master lists. Apply sums its
	// float aggregate per chunk, then the chunks in order; the GLPR
	// golden pins the residuals this order yields, bit for bit.
	masterChunks [][]parallel.Range

	// pool runs every phase, one task per machine.
	pool    *parallel.Pool
	scratch []machineScratch[V, M]
}

// gatherCharge counts one machine's gather work in a superstep: the
// in-edges it read and the partials it sent to masters on other
// machines. Masters on any machine charge it concurrently; integer sums
// do not depend on the order they are taken in. The padding keeps every
// machine's counters on a cache line of their own.
type gatherCharge struct {
	edgeOps atomic.Int64
	sent    atomic.Int64
	_       [48]byte
}

// syncEntry is one delivery of v's state (or share) to a replica; pos
// places it among all the deliveries its master machine sent the
// replica's machine this superstep (see Engine.syncOut).
type syncEntry[V any] struct {
	v     graph.VertexID
	pos   uint32
	state V
}

// machineScratch is one machine's reusable working set: its graph
// reader, local out-edge buffer, Context and stream, the emit function
// that combines its scatter messages into its outbox, planSync's
// working lists (deg is indexed by machine) and its phase tallies. Only
// the machine's own task touches it.
type machineScratch[V, M any] struct {
	reader *graph.AdjReader
	nbrs   []graph.VertexID
	ctx    Context
	stream rng.Stream
	emit   func(dst graph.VertexID, msg M)

	synced  []uint16
	targets []uint16
	weights []int
	shares  []V
	filled  []bool
	deg     []int

	// applied counts the vertices the machine applied this superstep,
	// and newPending its newly activated vertices from the routing
	// phase, summed into Engine.pending.
	applied, newPending int64
}

// New validates the configuration and builds an engine. The layout may
// be shared across engines; the engine itself is single-use (call Run
// once).
func New[V, M any](lay *cluster.Layout, prog Program[V, M], opts Options) (*Engine[V, M], error) {
	if lay == nil || prog == nil {
		return nil, errors.New("gas: nil layout or program")
	}
	if opts.PS < 0 || opts.PS > 1 {
		return nil, fmt.Errorf("gas: ps %v out of [0,1]", opts.PS)
	}
	if _, ok := prog.(Gatherer[V]); ok && opts.PS != 1 {
		return nil, fmt.Errorf("gas: a Gatherer reads master state, which needs every mirror synchronized: ps %v, want 1", opts.PS)
	}
	if opts.MaxSupersteps <= 0 {
		return nil, fmt.Errorf("gas: MaxSupersteps must be positive, got %d", opts.MaxSupersteps)
	}
	if opts.Cost == (cluster.CostModel{}) {
		opts.Cost = cluster.DefaultCostModel()
	}
	e := &Engine[V, M]{
		lay:      lay,
		prog:     prog,
		opts:     opts,
		n:        lay.Graph().NumVertices(),
		machines: lay.NumMachines(),
		sizes:    prog.Sizes(),
	}
	if g, ok := prog.(Gatherer[V]); ok {
		e.gatherer = g
	}
	if s, ok := prog.(Splitter[V]); ok {
		e.splitter = s
	}
	if f, ok := prog.(Finalizer[V, M]); ok {
		e.finalizer = f
	}
	e.state = make([]V, e.n)
	e.active = make([]bool, e.n)
	e.nextActive = make([]bool, e.n)
	e.inbox = make([]M, e.n)
	e.hasMsg = make([]bool, e.n)
	e.nextInbox = make([]M, e.n)
	e.nextHasMsg = make([]bool, e.n)
	e.outbox = make([][]map[graph.VertexID]M, e.machines)
	e.syncOut = make([][][]syncEntry[V], e.machines)
	e.scratch = make([]machineScratch[V, M], e.machines)
	e.masterChunks = make([][]parallel.Range, e.machines)
	for m := 0; m < e.machines; m++ {
		out := make([]map[graph.VertexID]M, e.machines)
		for t := range out {
			out[t] = make(map[graph.VertexID]M)
		}
		e.outbox[m] = out
		e.syncOut[m] = make([][]syncEntry[V], e.machines)
		e.masterChunks[m] = parallel.Chunks(len(lay.Masters(m)))
		sc := &e.scratch[m]
		sc.ctx.Rng = &sc.stream
		sc.emit = func(dst graph.VertexID, msg M) {
			e.combineInto(out[e.lay.MasterOf(dst)], dst, msg)
		}
	}
	e.sent = make([]int, e.machines*e.machines)
	e.idleOps = make([]int64, e.machines*e.machines)
	e.stepMeters = make([]cluster.MachineMeter, e.machines)
	e.runMeters = make([]cluster.MachineMeter, e.machines)
	e.aggregates = make([]float64, e.machines)
	if e.gatherer != nil {
		e.in = lay.InIndex()
		e.gathered = make([]float64, e.n)
		e.gatherCharges = make([]gatherCharge, e.machines)
	}

	// Initial states and activation. The pending counter needs no
	// seeding: quiescence is only consulted after a superstep, and every
	// superstep's routing phase recounts it from scratch.
	for v := 0; v < e.n; v++ {
		st, act := prog.InitState(graph.VertexID(v))
		e.state[v] = st
		e.active[v] = act
	}
	return e, nil
}

// Run executes supersteps until MaxSupersteps, quiescence (no active
// vertices and no pending messages) or StopWhen fires, then runs the
// finalizer and returns statistics. Every phase is one pool run over
// the machines, each machine's task running the phase serially, so a
// machine's phase is what runs on one core. A panic in a machine's task
// surfaces from Run under parallel.Pool.Run's rule.
func (e *Engine[V, M]) Run() (*RunStats, error) {
	start := time.Now()
	e.pool = parallel.NewPool(min(runtime.GOMAXPROCS(0), e.machines))
	defer e.pool.Close()
	stats := &RunStats{ReplicationFactor: e.lay.ReplicationFactor()}
	for step := 0; step < e.opts.MaxSupersteps; step++ {
		applied := e.superstep(step)
		stats.Supersteps = step + 1

		agg := 0.0
		for m := 0; m < e.machines; m++ {
			agg += e.aggregates[m]
		}
		stats.AggregateByStep = append(stats.AggregateByStep, agg)
		stats.ActiveByStep = append(stats.ActiveByStep, applied)

		stepSeconds := e.opts.Cost.SuperstepSeconds(e.stepMeters)
		stats.SimSecondsPerStep = append(stats.SimSecondsPerStep, stepSeconds)
		stats.SimSeconds += stepSeconds
		for m := 0; m < e.machines; m++ {
			e.runMeters[m].Add(&e.stepMeters[m])
			e.stepMeters[m].Reset()
		}

		if e.opts.StopWhen != nil && e.opts.StopWhen(step, agg) {
			break
		}
		if !e.opts.AlwaysActive && e.quiescent() {
			break
		}
	}
	// Deliver still-pending messages to the finalizer.
	if e.finalizer != nil {
		e.pool.Run(e.machines, func(m, _ int) {
			for _, v := range e.lay.Masters(m) {
				e.state[v] = e.finalizer.Finalize(v, e.state[v], e.inbox[v], e.hasMsg[v])
			}
		})
	}
	for m := 0; m < e.machines; m++ {
		mm := &e.runMeters[m]
		for c := cluster.TrafficGather; c <= cluster.TrafficControl; c++ {
			stats.Net.BytesByClass[c] += mm.SentBytes[c]
		}
		stats.Net.EdgeOps += mm.EdgeOps
		stats.Net.VertexOps += mm.VertexOps
	}
	for _, b := range stats.Net.BytesByClass {
		stats.Net.TotalBytes += b
	}
	stats.CPUSeconds = e.opts.Cost.CPUSeconds(e.runMeters)
	stats.WallSeconds = time.Since(start).Seconds()
	return stats, nil
}

// quiescent reports whether no vertex is active and no message is
// pending. The pending counter is maintained by the routing phase, so
// this is O(1) regardless of graph size.
func (e *Engine[V, M]) quiescent() bool {
	return e.pending == 0
}

// superstep runs one full GAS cycle and returns the number of applied
// vertices.
func (e *Engine[V, M]) superstep(step int) int64 {
	for m := 0; m < e.machines; m++ {
		e.aggregates[m] = 0
	}

	// Phase 1 — gather at the masters. Each active master v sums one
	// partial per machine owning in-edges of v, in ascending machine
	// order, each read from master states (every mirror is
	// synchronized, ps = 1). The machine owning the edges is charged the
	// edge reads and, unless it is v's master, one partial sent; the
	// master receives it.
	if e.gatherer != nil {
		partial := int64(e.sizes.Acc) + perEntryHeaderBytes
		read := func(u graph.VertexID) V { return e.state[u] }
		e.pool.Run(e.machines, func(m, _ int) {
			meter := &e.stepMeters[m]
			ctx := &Context{Superstep: step, NumVertices: e.n, NumMachines: e.machines}
			for _, v := range e.lay.Masters(m) {
				if !e.isActive(v) {
					continue
				}
				src, machine := e.in.In(v)
				acc := 0.0
				for lo := 0; lo < len(src); {
					mm := machine[lo]
					hi := lo + 1
					for hi < len(src) && machine[hi] == mm {
						hi++
					}
					ctx.Machine = int(mm)
					acc += e.gatherer.GatherLocal(v, src[lo:hi], read, ctx)
					charge := &e.gatherCharges[mm]
					charge.edgeOps.Add(int64(hi - lo))
					if int(mm) != m {
						charge.sent.Add(1)
						meter.Recv(cluster.TrafficGather, partial)
					}
					lo = hi
				}
				e.gathered[v] = acc
			}
		})
		for m := range e.gatherCharges {
			charge := &e.gatherCharges[m]
			e.stepMeters[m].EdgeOps += charge.edgeOps.Swap(0)
			e.stepMeters[m].Send(cluster.TrafficGather, partial*charge.sent.Swap(0))
		}
	}

	// Phase 2 — apply at the masters and plan their syncs and scatter
	// shares into syncOut. A vertex's stream is re-derived for it, and
	// the float aggregate is summed per master chunk, then the chunks
	// in order.
	e.pool.Run(e.machines, func(m, _ int) {
		sc := &e.scratch[m]
		masters := e.lay.Masters(m)
		ctx := &sc.ctx
		ctx.Superstep, ctx.NumVertices, ctx.NumMachines, ctx.Machine = step, e.n, e.machines, m
		sc.applied = 0
		for _, r := range e.masterChunks[m] {
			agg := 0.0
			for _, v := range masters[r.Lo:r.Hi] {
				if !e.isActive(v) && !e.hasMsg[v] {
					continue
				}
				sc.applied++
				acc := 0.0
				if e.gatherer != nil {
					acc = e.gathered[v]
				}
				sc.stream = rng.DeriveValue(e.opts.Seed, rngDomainApply, uint64(step), uint64(v))
				ctx.aggregate = 0
				newState, doScatter := e.prog.Apply(v, e.state[v], acc, e.inbox[v], e.hasMsg[v], ctx)
				e.state[v] = newState
				agg += ctx.aggregate
				e.stepMeters[m].VertexOps++
				if doScatter {
					e.planSync(m, v, newState, sc)
				}
			}
			e.aggregates[m] += agg
		}
	})
	var applied int64
	for m := range e.scratch {
		applied += e.scratch[m].applied
	}

	// Phase 3 — deliver syncs, then scatter on synchronized replicas.
	// Every delivery a machine received has a place in one list: source
	// machines ascending, each source's in the order it sent them (both
	// deterministic). The list is chunked by its full length, and the
	// scatter stream is derived afresh for every chunk. Idle deliveries
	// were never stored: the machine is charged their sync bytes and
	// local out-edges in bulk, and scatters the live ones, so chunk
	// boundaries and streams are those of the full list. A replica's
	// local out-edges come from the graph's CSR filtered by the
	// placement, and its messages are combined into the machine's
	// outbox as they are emitted, each into the bucket of its
	// destination's master.
	e.pool.Run(e.machines, func(m, _ int) {
		sc := &e.scratch[m]
		meter := &e.stepMeters[m]
		total, recv := 0, 0
		var idleOps int64
		for src := 0; src < e.machines; src++ {
			k := e.sent[src*e.machines+m]
			total += k
			if src != m {
				recv += k
			}
			idleOps += e.idleOps[src*e.machines+m]
		}
		meter.Recv(cluster.TrafficSync, int64(recv)*(int64(e.sizes.State)+perEntryHeaderBytes))
		meter.EdgeOps += idleOps
		if sc.reader == nil {
			sc.reader = e.lay.Graph().NewAdjReader()
		}
		defer sc.reader.Release()
		ctx := &sc.ctx
		ctx.Superstep, ctx.NumVertices, ctx.NumMachines, ctx.Machine = step, e.n, e.machines, m
		chunks := parallel.Chunks(total)
		purpose := scatterPurpose(step, m)
		// c is the chunk sc.stream was derived for (-1: none yet), and
		// first the place of src's first delivery in the list.
		c, first := -1, 0
		for src := 0; src < e.machines; src++ {
			for i := range e.syncOut[src][m] {
				entry := &e.syncOut[src][m][i]
				if at := first + int(entry.pos); c < 0 || at >= chunks[c].Hi {
					for c < 0 || at >= chunks[c].Hi {
						c++
					}
					sc.stream = rng.DeriveValue(e.opts.Seed, purpose, uint64(c))
				}
				neighbors := e.lay.LocalOutNeighbors(sc.reader, entry.v, m, sc.nbrs[:0])
				sc.nbrs = neighbors
				if len(neighbors) == 0 {
					continue
				}
				e.prog.ScatterLocal(entry.v, entry.state, neighbors, sc.emit, ctx)
				meter.EdgeOps += int64(len(neighbors))
			}
			first += e.sent[src*e.machines+m]
		}
	})

	// Phase 4 — route combined messages to destination masters. Each
	// destination machine drains its own bucket of every outbox, so
	// writes to nextInbox are disjoint across machines; each machine
	// counts its newly activated vertices for the pending counter.
	msgBytes := int64(e.sizes.Msg) + perEntryHeaderBytes
	e.pool.Run(e.machines, func(m, _ int) {
		meter := &e.stepMeters[m]
		var fresh int64
		for src := 0; src < e.machines; src++ {
			bucket := e.outbox[src][m]
			if src != m {
				meter.Recv(cluster.TrafficSignal, int64(len(bucket))*msgBytes)
			}
			for dst, msg := range bucket {
				if e.nextHasMsg[dst] {
					e.nextInbox[dst] = e.prog.CombineMsg(e.nextInbox[dst], msg)
				} else {
					e.nextInbox[dst] = msg
					e.nextHasMsg[dst] = true
					fresh++
				}
				e.nextActive[dst] = true
			}
		}
		e.scratch[m].newPending = fresh
	})
	e.pending = 0
	for m := range e.scratch {
		e.pending += e.scratch[m].newPending
	}
	// Meter sends for signals (per source machine) and charge one
	// control message per machine pair for the barrier.
	for src := 0; src < e.machines; src++ {
		meter := &e.stepMeters[src]
		for dst, bucket := range e.outbox[src] {
			if dst != src {
				meter.Send(cluster.TrafficSignal, int64(len(bucket))*msgBytes)
			}
		}
		meter.Send(cluster.TrafficControl, int64(8*(e.machines-1)))
	}

	// Swap double buffers and clear scratch.
	e.inbox, e.nextInbox = e.nextInbox, e.inbox
	e.hasMsg, e.nextHasMsg = e.nextHasMsg, e.hasMsg
	e.active, e.nextActive = e.nextActive, e.active
	clear(e.nextActive)
	clear(e.nextHasMsg)
	clear(e.nextInbox) // drop consumed messages; stale values must never leak
	for m := 0; m < e.machines; m++ {
		for t := 0; t < e.machines; t++ {
			clear(e.outbox[m][t])
			e.syncOut[m][t] = e.syncOut[m][t][:0]
		}
	}
	clear(e.sent)
	clear(e.idleOps)
	return applied
}

// combineInto upserts msg for dst into an outbox map, merging with any
// earlier message via the program's combiner.
func (e *Engine[V, M]) combineInto(out map[graph.VertexID]M, dst graph.VertexID, msg M) {
	if prev, ok := out[dst]; ok {
		out[dst] = e.prog.CombineMsg(prev, msg)
	} else {
		out[dst] = msg
	}
}

// isActive reports whether v takes part in this superstep.
func (e *Engine[V, M]) isActive(v graph.VertexID) bool {
	return e.opts.AlwaysActive || e.active[v] || e.hasMsg[v]
}

// planSync decides which replicas of v synchronize this superstep,
// meters the sync traffic, and appends per-target sync entries (with
// split shares for Splitter programs) to syncOut. It runs at v's master
// machine m, on m's scratch sc, whose stream is the vertex's
// apply-phase stream, so the mirror coin flips are deterministic per
// (seed, superstep, vertex). Its working lists live in sc, and every
// buffer it grows is stored back there before it returns. Every
// delivery takes the next place among m's deliveries to its target
// (sent[target]); a share Split left empty is idle: it gets no entry,
// and its local out-edges are added to idleOps[target].
func (e *Engine[V, M]) planSync(m int, v graph.VertexID, state V, sc *machineScratch[V, M]) {
	r := &sc.stream
	meter := &e.stepMeters[m]
	sent := e.sent[m*e.machines : (m+1)*e.machines]
	out := e.syncOut[m]
	presences := e.lay.Presences(v)
	if len(presences) == 0 {
		return
	}
	// presences[0] is the master's machine: always synchronized.
	synced := append(sc.synced[:0], presences[0])
	for _, mirror := range presences[1:] {
		if r.Bernoulli(e.opts.PS) {
			synced = append(synced, mirror)
			meter.Send(cluster.TrafficSync, int64(e.sizes.State)+perEntryHeaderBytes)
		}
	}
	sc.synced = synced

	if e.splitter == nil {
		for _, target := range synced {
			out[target] = append(out[target], syncEntry[V]{v: v, pos: uint32(sent[target]), state: state})
			sent[target]++
		}
		return
	}

	// Splitter path: shares go only to synchronized replicas that own
	// local out-edges of v. If none qualifies, force-enable one replica
	// that has local edges — the paper's "At Least One Out-Edge Per
	// Node" erasure model (Example 10).
	if sc.deg == nil {
		sc.deg = make([]int, e.machines)
	}
	deg := sc.deg
	e.lay.LocalOutDegrees(v, deg)
	targets, weights := sc.targets[:0], sc.weights[:0]
	for _, t := range synced {
		if d := deg[t]; d > 0 {
			targets = append(targets, t)
			weights = append(weights, d)
		}
	}
	if len(targets) == 0 {
		// Nothing was appended, so nothing grew: these returns leave sc
		// as it was.
		if e.opts.IndependentErasures {
			return // Example 9: the state strands this superstep
		}
		// Collect all replicas with local edges and force one (rare, so
		// its list is not pooled).
		var candidates []uint16
		for _, t := range presences {
			if deg[t] > 0 {
				candidates = append(candidates, t)
			}
		}
		if len(candidates) == 0 {
			return // vertex has no out-edges anywhere
		}
		forced := candidates[r.Intn(len(candidates))]
		targets = append(targets, forced)
		weights = append(weights, deg[forced])
		if int(forced) != m {
			meter.Send(cluster.TrafficSync, int64(e.sizes.State)+perEntryHeaderBytes)
		}
	}
	sc.targets, sc.weights = targets, weights
	shares := slices.Grow(sc.shares[:0], len(weights))[:len(weights)]
	clear(shares)
	sc.shares = shares
	filled := slices.Grow(sc.filled[:0], len(weights))[:len(weights)]
	clear(filled)
	sc.filled = filled
	e.splitter.Split(v, state, weights, r, shares, filled)
	idleOps := e.idleOps[m*e.machines : (m+1)*e.machines]
	for i, target := range targets {
		if filled[i] {
			out[target] = append(out[target], syncEntry[V]{v: v, pos: uint32(sent[target]), state: shares[i]})
		} else {
			idleOps[target] += int64(weights[i])
		}
		sent[target]++
	}
}

// MasterStates returns the final master state of every vertex, indexed
// by vertex id. Valid after Run.
func (e *Engine[V, M]) MasterStates() []V { return e.state }
