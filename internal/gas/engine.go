package gas

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
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
	// superstep, charged from any master's goroutine.
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

	// Fixed per-machine chunkings of the master lists: boundaries are a
	// function of list lengths only, never of the worker count — the
	// invariant that keeps runs bit-identical for any GOMAXPROCS.
	masterChunks [][]parallel.Range

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

// targetedSync is a sync delivery staged in a worker's apply buffer
// before the chunk-order merge into syncOut; until then entry.pos counts
// only its chunk's own deliveries to target.
type targetedSync[V any] struct {
	target uint16
	entry  syncEntry[V]
}

// message is a scatter message staged in a worker's buffer before the
// chunk-order merge into the outbox.
type message[M any] struct {
	dst graph.VertexID
	msg M
}

// span locates one chunk's staged entries: worker w's buffer [lo, hi).
type span struct {
	w, lo, hi int
}

// machineScratch holds one machine's worker pool and reusable per-chunk
// buffers. Every per-chunk partial (meter, float aggregate, sync and
// message buffers) lands here and is reduced in chunk-index order on
// the machine's own goroutine after the pool drains.
type machineScratch[V, M any] struct {
	pool    *parallel.Pool
	meters  []cluster.MachineMeter
	aggs    []float64
	applied []int64
	// staged[c] locates chunk c's sync deliveries (apply) or messages
	// (scatter) in its worker's buffer.
	staged []span
	// sent[c*machines+t] and idleOps[c*machines+t] count apply chunk c's
	// deliveries to target t and the local out-edges of its idle ones
	// (see Engine.sent).
	sent    []int
	idleOps []int64
	workers []workerScratch[V, M]
	// first[src] is the index of src's first delivery in the scatter's
	// list of every delivery this machine received, live and idle.
	first []int
	// newPending is the machine's newly activated vertex count from the
	// routing phase, summed into Engine.pending.
	newPending int64
}

// workerScratch is one pool worker's graph reader, local out-edge
// buffer, Context, stream and planSync working lists (deg is indexed by
// machine), which a chunk sets up afresh, and the buffers its chunks
// stage their sync deliveries and messages in, in the order they run;
// the chunks' spans (machineScratch.staged) put them back in chunk
// order. emit appends to msgs.
type workerScratch[V, M any] struct {
	reader *graph.AdjReader
	nbrs   []graph.VertexID
	ctx    Context
	stream rng.Stream
	sync   []targetedSync[V]
	msgs   []message[M]
	emit   func(dst graph.VertexID, msg M)

	synced  []uint16
	targets []uint16
	weights []int
	shares  []V
	filled  []bool
	deg     []int
}

// ensure grows the per-chunk buffers to hold at least n chunks of a
// cluster of the given size, preserving already-allocated capacity.
func (sc *machineScratch[V, M]) ensure(n, machines int) {
	grow := n - len(sc.meters)
	if grow <= 0 {
		return
	}
	sc.meters = append(sc.meters, make([]cluster.MachineMeter, grow)...)
	sc.aggs = append(sc.aggs, make([]float64, grow)...)
	sc.applied = append(sc.applied, make([]int64, grow)...)
	sc.staged = append(sc.staged, make([]span, grow)...)
	sc.sent = append(sc.sent, make([]int, grow*machines)...)
	sc.idleOps = append(sc.idleOps, make([]int64, grow*machines)...)
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
	for m := 0; m < e.machines; m++ {
		e.outbox[m] = make([]map[graph.VertexID]M, e.machines)
		for t := range e.outbox[m] {
			e.outbox[m][t] = make(map[graph.VertexID]M)
		}
		e.syncOut[m] = make([][]syncEntry[V], e.machines)
	}
	e.sent = make([]int, e.machines*e.machines)
	e.idleOps = make([]int64, e.machines*e.machines)
	e.stepMeters = make([]cluster.MachineMeter, e.machines)
	e.runMeters = make([]cluster.MachineMeter, e.machines)
	e.aggregates = make([]float64, e.machines)
	e.scratch = make([]machineScratch[V, M], e.machines)
	e.masterChunks = make([][]parallel.Range, e.machines)
	for m := 0; m < e.machines; m++ {
		e.masterChunks[m] = parallel.Chunks(len(lay.Masters(m)))
	}
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

// parallel runs fn(machine) concurrently for every machine and waits.
// A machine that panics with anything but a runtime error (a failed
// paged read of the graph, which scatter reads) does not kill the
// process: once every machine has returned, parallel panics with the
// first such value on the caller's goroutine, where Run's caller can
// recover it — the policy parallel.Pool.Run applies to its workers. A
// runtime error is a bug and crashes where it happened.
func (e *Engine[V, M]) parallel(fn func(m int)) {
	if e.machines == 1 {
		fn(0)
		return
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(e.machines)
	for m := 0; m < e.machines; m++ {
		go func(m int) {
			defer wg.Done()
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if _, bug := v.(runtime.Error); bug {
					panic(v)
				}
				first := v // escapes; v itself stays off the heap on the no-panic path
				panicked.CompareAndSwap(nil, &first)
			}()
			fn(m)
		}(m)
	}
	wg.Wait()
	if v := panicked.Load(); v != nil {
		panic(*v)
	}
}

// Run executes supersteps until MaxSupersteps, quiescence (no active
// vertices and no pending messages) or StopWhen fires, then runs the
// finalizer and returns statistics.
func (e *Engine[V, M]) Run() (*RunStats, error) {
	start := time.Now()
	// Machines already fan out one goroutine each; split the cores
	// among them.
	workers := max(1, runtime.GOMAXPROCS(0)/e.machines)
	for m := range e.scratch {
		sc := &e.scratch[m]
		sc.pool = parallel.NewPool(workers)
		sc.workers = make([]workerScratch[V, M], workers)
		for w := range sc.workers {
			ws := &sc.workers[w]
			ws.ctx.Rng = &ws.stream
			ws.emit = func(dst graph.VertexID, msg M) {
				ws.msgs = append(ws.msgs, message[M]{dst, msg})
			}
		}
		sc.first = make([]int, e.machines)
	}
	defer func() {
		for m := range e.scratch {
			e.scratch[m].pool.Close()
		}
	}()
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
		e.parallel(func(m int) {
			masters := e.lay.Masters(m)
			chunks := e.masterChunks[m]
			e.scratch[m].pool.Run(len(chunks), func(c, _ int) {
				for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
					v := masters[i]
					e.state[v] = e.finalizer.Finalize(v, e.state[v], e.inbox[v], e.hasMsg[v])
				}
			})
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

	// Phase 1 — gather at the masters, sharded over the master chunks.
	// Each active master v sums one partial per machine owning in-edges
	// of v, in ascending machine order, each read from master states
	// (every mirror is synchronized, ps = 1). The machine owning the
	// edges is charged the edge reads and, unless it is v's master, one
	// partial sent; the master receives it.
	if e.gatherer != nil {
		partial := int64(e.sizes.Acc) + perEntryHeaderBytes
		e.parallel(func(m int) {
			sc := &e.scratch[m]
			masters := e.lay.Masters(m)
			chunks := e.masterChunks[m]
			sc.ensure(len(chunks), e.machines)
			read := func(u graph.VertexID) V { return e.state[u] }
			sc.pool.Run(len(chunks), func(c, _ int) {
				meter := &sc.meters[c]
				meter.Reset()
				ctx := &Context{Superstep: step, NumVertices: e.n, NumMachines: e.machines}
				for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
					v := graph.VertexID(masters[i])
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
			for c := range chunks {
				e.stepMeters[m].Add(&sc.meters[c])
			}
		})
		for m := range e.gatherCharges {
			charge := &e.gatherCharges[m]
			e.stepMeters[m].EdgeOps += charge.edgeOps.Swap(0)
			e.stepMeters[m].Send(cluster.TrafficGather, partial*charge.sent.Swap(0))
		}
	}

	// Phase 2 — apply at masters, sharded over fixed chunks of the
	// master list; plan sync and scatter shares, staged in the worker's
	// buffer. Aggregates, meters and sync deliveries are reduced in
	// chunk-index order, keeping floating-point sums and syncOut
	// ordering identical for any worker count. A chunk runs on its
	// worker's Context and stream, the stream re-derived for every
	// vertex it applies. The merge turns each live delivery's place
	// among its chunk's deliveries to the target into its place among
	// all of this machine's, and sums the chunks' delivery counts and
	// idle edges.
	e.parallel(func(m int) {
		sc := &e.scratch[m]
		masters := e.lay.Masters(m)
		chunks := e.masterChunks[m]
		sc.ensure(len(chunks), e.machines)
		for w := range sc.workers {
			sc.workers[w].sync = sc.workers[w].sync[:0]
		}
		sc.pool.Run(len(chunks), func(c, w int) {
			meter := &sc.meters[c]
			meter.Reset()
			sc.aggs[c] = 0
			sc.applied[c] = 0
			sent := sc.sent[c*e.machines : (c+1)*e.machines]
			idleOps := sc.idleOps[c*e.machines : (c+1)*e.machines]
			clear(sent)
			clear(idleOps)
			ws := &sc.workers[w]
			ctx := &ws.ctx
			ctx.Superstep, ctx.NumVertices, ctx.NumMachines, ctx.Machine = step, e.n, e.machines, m
			staged := span{w: w, lo: len(ws.sync)}
			for i := chunks[c].Lo; i < chunks[c].Hi; i++ {
				v := graph.VertexID(masters[i])
				if !e.isActive(v) && !e.hasMsg[v] {
					continue
				}
				sc.applied[c]++
				acc := 0.0
				if e.gatherer != nil {
					acc = e.gathered[v]
				}
				ws.stream = rng.DeriveValue(e.opts.Seed, rngDomainApply, uint64(step), uint64(v))
				ctx.aggregate = 0
				newState, doScatter := e.prog.Apply(v, e.state[v], acc, e.inbox[v], e.hasMsg[v], ctx)
				e.state[v] = newState
				sc.aggs[c] += ctx.aggregate
				meter.VertexOps++
				if doScatter {
					ws.sync = e.planSync(m, v, newState, ws, meter, sent, idleOps, ws.sync)
				}
			}
			staged.hi = len(ws.sync)
			sc.staged[c] = staged
		})
		sent := e.sent[m*e.machines : (m+1)*e.machines]
		idleOps := e.idleOps[m*e.machines : (m+1)*e.machines]
		for c := range chunks {
			e.stepMeters[m].Add(&sc.meters[c])
			e.aggregates[m] += sc.aggs[c]
			st := sc.staged[c]
			for _, ts := range sc.workers[st.w].sync[st.lo:st.hi] {
				ts.entry.pos += uint32(sent[ts.target])
				e.syncOut[m][ts.target] = append(e.syncOut[m][ts.target], ts.entry)
			}
			for t := range sent {
				sent[t] += sc.sent[c*e.machines+t]
				idleOps[t] += sc.idleOps[c*e.machines+t]
			}
		}
	})
	var applied int64
	for m := range e.scratch {
		for c := range e.masterChunks[m] {
			applied += e.scratch[m].applied[c]
		}
	}

	// Phase 3 — deliver syncs, then scatter on synchronized replicas.
	// Every delivery a machine received has a place in one list: source
	// machines ascending, each source's in the order it sent them (both
	// deterministic). The list is chunked by its full length, and every
	// chunk gets its own derived rng stream. Idle deliveries were never
	// stored: the machine is charged their sync bytes and local
	// out-edges in bulk, and a chunk scatters only the live deliveries
	// whose places fall in its range, so chunk boundaries and streams
	// are those of the full list. A replica's local out-edges come from
	// the graph's CSR filtered by the placement into the worker's
	// buffer. Chunks stage their messages in emission order, and the
	// machine combines them into its outbox in chunk order, each into
	// the bucket of its destination's master.
	e.parallel(func(m int) {
		sc := &e.scratch[m]
		total, recv := 0, 0
		var idleOps int64
		for src := 0; src < e.machines; src++ {
			k := e.sent[src*e.machines+m]
			sc.first[src] = total
			total += k
			if src != m {
				recv += k
			}
			idleOps += e.idleOps[src*e.machines+m]
		}
		e.stepMeters[m].Recv(cluster.TrafficSync, int64(recv)*(int64(e.sizes.State)+perEntryHeaderBytes))
		e.stepMeters[m].EdgeOps += idleOps
		chunks := parallel.Chunks(total)
		sc.ensure(len(chunks), e.machines)
		defer func() {
			for w := range sc.workers {
				if r := sc.workers[w].reader; r != nil {
					r.Release()
				}
			}
		}()
		purpose := scatterPurpose(step, m)
		for w := range sc.workers {
			sc.workers[w].msgs = sc.workers[w].msgs[:0]
		}
		sc.pool.Run(len(chunks), func(c, w int) {
			meter := &sc.meters[c]
			meter.Reset()
			lo, hi := chunks[c].Lo, chunks[c].Hi
			ws := &sc.workers[w]
			if ws.reader == nil {
				ws.reader = e.lay.Graph().NewAdjReader()
			}
			ctx := &ws.ctx
			ctx.Superstep, ctx.NumVertices, ctx.NumMachines, ctx.Machine = step, e.n, e.machines, m
			ws.stream = rng.DeriveValue(e.opts.Seed, purpose, uint64(c))
			staged := span{w: w, lo: len(ws.msgs)}
			for src := 0; src < e.machines; src++ {
				first := sc.first[src]
				if first >= hi {
					break
				}
				list := e.syncOut[src][m]
				// The live deliveries from src in this chunk's range.
				at, _ := slices.BinarySearchFunc(list, lo-first, func(x syncEntry[V], pos int) int {
					return int(x.pos) - pos
				})
				for ; at < len(list) && first+int(list[at].pos) < hi; at++ {
					entry := &list[at]
					neighbors := e.lay.LocalOutNeighbors(ws.reader, entry.v, m, ws.nbrs[:0])
					ws.nbrs = neighbors
					if len(neighbors) == 0 {
						continue
					}
					e.prog.ScatterLocal(entry.v, entry.state, neighbors, ws.emit, ctx)
					meter.EdgeOps += int64(len(neighbors))
				}
			}
			staged.hi = len(ws.msgs)
			sc.staged[c] = staged
		})
		out := e.outbox[m]
		for c := range chunks {
			e.stepMeters[m].Add(&sc.meters[c])
			st := sc.staged[c]
			for _, x := range sc.workers[st.w].msgs[st.lo:st.hi] {
				e.combineInto(out[e.lay.MasterOf(x.dst)], x.dst, x.msg)
			}
		}
	})

	// Phase 4 — route combined messages to destination masters. Each
	// destination machine drains its own bucket of every outbox, so
	// writes to nextInbox are disjoint across goroutines; each machine
	// counts its newly activated vertices for the pending counter.
	msgBytes := int64(e.sizes.Msg) + perEntryHeaderBytes
	e.parallel(func(m int) {
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
// split shares for Splitter programs) to the caller's chunk buffer,
// returning the grown buffer. It runs at v's master machine m, on the
// worker scratch ps whose stream is the vertex's apply-phase stream, so
// the mirror coin flips are deterministic per (seed, superstep, vertex)
// regardless of chunking. Its working lists live in ps, and every
// buffer it grows is stored back there before it returns. Every
// delivery takes the next place among the chunk's deliveries to its
// target (sent[target]); a share Split left empty is idle: it gets no
// entry, and its local out-edges are added to idleOps[target].
func (e *Engine[V, M]) planSync(m int, v graph.VertexID, state V, ps *workerScratch[V, M], meter *cluster.MachineMeter, sent []int, idleOps []int64, sink []targetedSync[V]) []targetedSync[V] {
	r := &ps.stream
	presences := e.lay.Presences(v)
	if len(presences) == 0 {
		return sink
	}
	// presences[0] is the master's machine: always synchronized.
	synced := append(ps.synced[:0], presences[0])
	for _, mirror := range presences[1:] {
		if r.Bernoulli(e.opts.PS) {
			synced = append(synced, mirror)
			meter.Send(cluster.TrafficSync, int64(e.sizes.State)+perEntryHeaderBytes)
		}
	}
	ps.synced = synced

	if e.splitter == nil {
		for _, target := range synced {
			sink = append(sink, targetedSync[V]{target: target, entry: syncEntry[V]{v: v, pos: uint32(sent[target]), state: state}})
			sent[target]++
		}
		return sink
	}

	// Splitter path: shares go only to synchronized replicas that own
	// local out-edges of v. If none qualifies, force-enable one replica
	// that has local edges — the paper's "At Least One Out-Edge Per
	// Node" erasure model (Example 10).
	if ps.deg == nil {
		ps.deg = make([]int, e.machines)
	}
	deg := ps.deg
	e.lay.LocalOutDegrees(v, deg)
	targets, weights := ps.targets[:0], ps.weights[:0]
	for _, t := range synced {
		if d := deg[t]; d > 0 {
			targets = append(targets, t)
			weights = append(weights, d)
		}
	}
	if len(targets) == 0 {
		// Nothing was appended, so nothing grew: these returns leave ps
		// as it was.
		if e.opts.IndependentErasures {
			return sink // Example 9: the state strands this superstep
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
			return sink // vertex has no out-edges anywhere
		}
		forced := candidates[r.Intn(len(candidates))]
		targets = append(targets, forced)
		weights = append(weights, deg[forced])
		if int(forced) != m {
			meter.Send(cluster.TrafficSync, int64(e.sizes.State)+perEntryHeaderBytes)
		}
	}
	ps.targets, ps.weights = targets, weights
	shares := slices.Grow(ps.shares[:0], len(weights))[:len(weights)]
	clear(shares)
	ps.shares = shares
	filled := slices.Grow(ps.filled[:0], len(weights))[:len(weights)]
	clear(filled)
	ps.filled = filled
	e.splitter.Split(v, state, weights, r, shares, filled)
	for i, target := range targets {
		if filled[i] {
			sink = append(sink, targetedSync[V]{target: target, entry: syncEntry[V]{v: v, pos: uint32(sent[target]), state: shares[i]}})
		} else {
			idleOps[target] += int64(weights[i])
		}
		sent[target]++
	}
	return sink
}

// MasterStates returns the final master state of every vertex, indexed
// by vertex id. Valid after Run.
func (e *Engine[V, M]) MasterStates() []V { return e.state }
