// Package parallel provides the shared-memory multicore execution
// layer used by the exact and serial reproduction paths: a reusable
// worker pool plus a deterministic chunking policy.
//
// Determinism is the design constraint. Every consumer of this package
// promises bit-identical results for any worker count, which forces
// two rules:
//
//   - Chunk boundaries are a function of the problem size only, never
//     of the worker count (Chunks). A per-chunk computation — a
//     partial floating-point sum, or a kernel call over walks that
//     each draw from their own rng.Stream — is therefore the same no
//     matter how many workers execute the chunks or in what order.
//   - Cross-chunk reduction happens after the pool drains, in chunk
//     index order, on the caller's goroutine. Floating-point partial
//     sums are combined in a fixed order; integer tallies may be
//     merged in any order because integer addition is associative.
//
// Under these rules the worker count only sets throughput: 1 reproduces
// single-threaded execution exactly, and N ≥ 2 reproduces the same
// bits faster.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Range is a half-open interval [Lo, Hi) of task or vertex indices.
type Range struct {
	Lo, Hi int
}

const (
	// minChunkSize is the smallest unit of work worth scheduling (and,
	// for the random-walk paths, worth one walk-kernel call).
	minChunkSize = 64
	// maxChunkCount bounds scheduling overhead and the size of
	// per-chunk partial-result arrays while still giving dynamic
	// load balancing plenty of slack over any realistic core count.
	maxChunkCount = 256
)

// NumChunks returns how many chunks Chunks splits n items into. The
// count depends only on n — never on the worker count — which is what
// keeps chunked computation bit-identical for any worker count.
func NumChunks(n int) int {
	if n <= minChunkSize {
		return 1
	}
	return min((n+minChunkSize-1)/minChunkSize, maxChunkCount)
}

// Chunks splits [0, n) into NumChunks(n) contiguous near-equal ranges.
// Boundaries are a pure function of n, so chunk c always covers the
// same indices regardless of how many workers process the chunks.
func Chunks(n int) []Range {
	k := NumChunks(n)
	out := make([]Range, k)
	for c := 0; c < k; c++ {
		out[c] = Range{Lo: c * n / k, Hi: (c + 1) * n / k}
	}
	return out
}

// job is one Run call: tasks [0, n) claimed via an atomic counter.
type job struct {
	next     atomic.Int64
	n        int
	fn       func(task, worker int)
	wg       sync.WaitGroup
	panicked atomic.Pointer[any] // the first value a task panicked with
}

// Pool is a reusable fixed-size worker pool. Construct one with
// NewPool, issue any number of Run calls, then Close it. A Pool with
// one worker never spawns a goroutine: Run executes inline, which is
// exactly the pre-parallel serial behaviour.
//
// A Pool is intended for repeated fan-out from a single coordinating
// goroutine (e.g. one Run per power-iteration phase); Run must not be
// called concurrently with itself or with Close.
type Pool struct {
	workers int
	jobs    chan *job
}

// NewPool returns a pool of max(workers, 1) workers. Workers beyond
// the first are persistent goroutines that live until Close; the
// goroutine calling Run always participates as worker 0.
func NewPool(workers int) *Pool {
	w := max(workers, 1)
	p := &Pool{workers: w}
	if w > 1 {
		p.jobs = make(chan *job, w-1)
		for id := 1; id < w; id++ {
			go p.work(id)
		}
	}
	return p
}

// NumWorkers returns the pool's worker count. Callers allocating
// per-worker scratch (tally arrays, partial sums) size it with this.
func (p *Pool) NumWorkers() int { return p.workers }

// Run executes fn(task, worker) for every task in [0, n), distributing
// tasks across the pool dynamically, and returns once all n calls have
// completed. worker identifies which of the NumWorkers() workers ran
// the task, for indexing per-worker scratch; task-to-worker assignment
// is NOT deterministic, so anything order- or assignment-sensitive
// must be keyed by task (chunk), not by worker.
//
// A task that panics with anything but a runtime error (the repo's
// storage layer panics with the I/O error of a failed paged read) stops
// the job, and Run panics with that value on the caller's goroutine
// once every worker has stopped — so the caller can recover it whichever
// worker ran the task. A runtime error is a bug and crashes where it
// happened, with its own stack.
func (p *Pool) Run(n int, fn func(task, worker int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for t := 0; t < n; t++ {
			fn(t, 0)
		}
		return
	}
	j := &job{n: n, fn: fn}
	j.wg.Add(p.workers - 1)
	for id := 1; id < p.workers; id++ {
		p.jobs <- j
	}
	j.drain(0)
	j.wg.Wait()
	if v := j.panicked.Load(); v != nil {
		panic(*v)
	}
}

// Close shuts down the pool's worker goroutines. The pool must not be
// used afterwards, and Close must be called at most once. Close on a
// single-worker pool is a no-op.
func (p *Pool) Close() {
	if p.jobs != nil {
		close(p.jobs)
	}
}

func (p *Pool) work(id int) {
	for j := range p.jobs {
		j.drain(id)
		j.wg.Done()
	}
}

// drain claims and runs tasks until none are left or one panics.
func (j *job) drain(worker int) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if _, bug := v.(runtime.Error); bug {
			panic(v)
		}
		first := v // escapes; v itself stays off the heap on the no-panic path
		j.panicked.CompareAndSwap(nil, &first)
		j.next.Store(int64(j.n)) // hand out no more tasks
	}()
	for {
		t := int(j.next.Add(1)) - 1
		if t >= j.n {
			return
		}
		j.fn(t, worker)
	}
}
