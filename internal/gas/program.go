// Package gas implements a synchronous, vertex-cut GAS (gather, apply,
// scatter) graph engine in the style of GraphLab PowerGraph, extended
// with the FrogWild paper's one engine modification: a per-run scalar
// ps ∈ [0,1] such that at every superstep each master synchronizes each
// of its mirrors only with probability ps. Mirrors that are not
// synchronized stay idle for that superstep's scatter phase, which is
// exactly the paper's randomized-synchronization patch and its source
// of network savings.
//
// A superstep proceeds in phases, matching PowerGraph's synchronous
// engine:
//
//  1. Gather (Gatherer programs only, at ps = 1): for each active
//     vertex, every machine owning in-edges of it computes a partial
//     accumulator over them; partials flow mirror→master. The engine
//     runs each partial at the master, from the layout's in-index,
//     reading master states — which every mirror holds when all of
//     them are synchronized — and charges the edge reads and the send
//     to the machine owning the edges.
//  2. Apply: the master sums the partials in ascending machine order,
//     combines them with the vertex's combined inbound message and runs
//     Apply, producing the new state.
//  3. Sync: the master synchronizes each mirror with probability ps
//     (the master's own machine is always current). Programs that
//     implement Splitter divide their state across the synchronized
//     replicas instead of copying it — this is how FrogWild's frogs
//     fan out while each frog still traverses exactly one edge.
//  4. Scatter: every synchronized replica runs ScatterLocal over its
//     local out-edges and may emit messages. A replica whose Splitter
//     share Split left unfilled (in FrogWild, one sent no frogs) does
//     not: it is charged the sync it received and its local out-edges,
//     as a replica that scattered nothing, but never reads them, so the
//     work follows the frogs. Messages are combined per destination,
//     kept in one bucket per destination master, and delivered to the
//     destination's master at the start of the next superstep,
//     activating it.
//
// A simulated machine is the unit of parallelism: every phase is one
// run of a pool of min(GOMAXPROCS, machines) workers over the
// machines, and each machine runs its phase serially, planning its syncs
// straight into the deliveries, combining its messages straight into its
// outbox and metering its own work. A run with fewer machines than
// cores therefore uses only as many cores as it has machines. Two
// chunkings survive, because they fix a result: apply sums its float
// aggregate per fixed chunk of the machine's master list, then the
// chunks in order, and scatter derives a fresh stream at each fixed
// chunk boundary of all the syncs the machine received, idle ones
// included. Both chunkings depend only on those lengths, and a vertex's
// gather partials are summed in machine order — so runs are
// bit-identical for any GOMAXPROCS.
//
// All randomness derives deterministically from the run seed, the
// superstep and the vertex, chunk or machine, so runs are reproducible
// regardless of goroutine scheduling.
package gas

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Context carries per-call engine context into program hooks.
type Context struct {
	// Superstep is the current superstep, starting at 0.
	Superstep int
	// NumVertices is the global vertex count.
	NumVertices int
	// NumMachines is the cluster size.
	NumMachines int
	// Machine is the executing machine (gather/scatter hooks) or the
	// master machine (apply).
	Machine int
	// Rng is a deterministic stream scoped to this (superstep, vertex)
	// or (superstep, machine, vertex) as appropriate.
	Rng *rng.Stream

	aggregate float64
}

// Aggregate adds x to the engine's global per-superstep aggregator
// (summed across vertices and machines); used e.g. for PageRank's
// convergence residual. Only meaningful from Apply.
func (c *Context) Aggregate(x float64) { c.aggregate += x }

// Sizes declares the serialized byte widths the engine meters for a
// program's data types.
type Sizes struct {
	// State is the vertex-state bytes copied master→mirror on sync.
	State int
	// Msg is the message payload bytes (the per-entry vertex-id header
	// is added by the engine).
	Msg int
	// Acc is the gather accumulator bytes sent mirror→master.
	Acc int
}

// Program is a vertex program executed by the engine. V is the vertex
// state type; M is the message type emitted by scatter.
//
// CombineMsg must be commutative and associative, and exact (e.g.
// integer addition) if bit-reproducible runs are required; the engine
// combines messages in arrival order.
type Program[V, M any] interface {
	// InitState returns vertex v's initial state and whether v starts
	// active. It is called once per vertex before superstep 0.
	InitState(v graph.VertexID) (V, bool)

	// Apply runs at v's master with the summed accumulator (0 unless
	// the program is a Gatherer) and the combined inbound message
	// (hasMsg reports whether any message arrived). It returns the new
	// state and whether the sync+scatter phases should run for v this
	// superstep.
	Apply(v graph.VertexID, state V, acc float64, msg M, hasMsg bool, ctx *Context) (V, bool)

	// ScatterLocal runs on each synchronized replica of v that owns
	// local out-edges of v (for a Splitter, each whose share Split
	// filled). neighbors holds their destinations, in an
	// engine buffer valid only during the call; emit sends a message to
	// a vertex, activating it next superstep. state is the replica's
	// state — for Splitter programs, this replica's share. Calls for one
	// machine (ctx.Machine) never overlap, so a program may keep scratch
	// per machine.
	ScatterLocal(v graph.VertexID, state V, neighbors []graph.VertexID, emit func(dst graph.VertexID, m M), ctx *Context)

	// CombineMsg merges two messages destined for the same vertex.
	CombineMsg(a, b M) M

	// Sizes returns the byte widths used for network metering.
	Sizes() Sizes
}

// Gatherer is an optional Program extension that adds the gather
// phase. GatherLocal computes one machine's partial accumulator for
// vertex v: neighbors holds the sources of v's in-edges that machine
// ctx.Machine owns, and read returns a vertex's state as its master
// holds it after the previous superstep. That is what every replica
// holds in PowerGraph's synchronous engine, whose mirrors are all
// synchronized every superstep, so New accepts a Gatherer only at
// ps = 1. Only a Gatherer makes the engine build the layout's in-index.
type Gatherer[V any] interface {
	GatherLocal(v graph.VertexID, neighbors []graph.VertexID, read func(graph.VertexID) V, ctx *Context) float64
}

// Splitter is an optional Program extension: instead of copying the
// master state to every synchronized replica, the engine asks the
// program to divide the state into one share per synchronized replica
// that has local out-edges. weights holds each such replica's local
// out-degree. shares and filled arrive zeroed and sized to
// len(weights), shares[i] and filled[i] for the replica of weights[i].
// Split writes the shares it assigns, and a share it leaves alone is
// the zero V; it sets filled[i] for every share that gives the replica
// something to scatter. A replica whose share is not filled is still
// sent it and charged its local out-edges, but it reads none of them
// and ScatterLocal does not run for it. The slices are the engine's and
// are reused after Split returns.
//
// FrogWild uses this to route each of K frogs through exactly one
// (enabled) out-edge: shares are multinomial with probabilities
// proportional to weights, which makes each frog's edge choice uniform
// over all enabled out-edges — the paper's edge-erasure model
// (Appendix A) at machine granularity.
type Splitter[V any] interface {
	Split(v graph.VertexID, state V, weights []int, r *rng.Stream, shares []V, filled []bool)
}

// Finalizer is an optional Program extension invoked once per vertex
// after the last superstep, at the master, with any still-undelivered
// combined message (frogs in flight at the cutoff, in FrogWild's
// case). The returned state replaces the master state.
type Finalizer[V, M any] interface {
	Finalize(v graph.VertexID, state V, pending M, hasPending bool) V
}
