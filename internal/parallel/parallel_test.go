package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	for req, want := range map[int]int{0: 1, 1: 1, 3: 3, -2: 1, 16: 16} {
		p := NewPool(req)
		if got := p.NumWorkers(); got != want {
			t.Errorf("NewPool(%d).NumWorkers() = %d, want %d", req, got, want)
		}
		p.Close()
	}
}

func TestChunksCoverDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 50000, 1 << 20} {
		chunks := Chunks(n)
		if len(chunks) != NumChunks(n) {
			t.Fatalf("n=%d: %d chunks, NumChunks says %d", n, len(chunks), NumChunks(n))
		}
		pos := 0
		for c, r := range chunks {
			if r.Lo != pos {
				t.Fatalf("n=%d chunk %d: Lo=%d, want %d (gap or overlap)", n, c, r.Lo, pos)
			}
			if r.Hi < r.Lo {
				t.Fatalf("n=%d chunk %d: inverted range %+v", n, c, r)
			}
			pos = r.Hi
		}
		if pos != n {
			t.Fatalf("n=%d: chunks end at %d", n, pos)
		}
	}
}

func TestChunksIndependentOfWorkerCount(t *testing.T) {
	// The boundary policy must not consult any concurrency knob; calling
	// it twice (or on machines with different core counts) must agree.
	// Chunks takes only n, so it suffices to check it is a pure function.
	a, b := Chunks(12345), Chunks(12345)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs between calls: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPoolRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewPool(workers)
		const n = 1000
		var hits [n]atomic.Int32
		p.Run(n, func(task, worker int) {
			if worker < 0 || worker >= p.NumWorkers() {
				t.Errorf("worker id %d out of [0,%d)", worker, p.NumWorkers())
			}
			hits[task].Add(1)
		})
		for task := range hits {
			if got := hits[task].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, task, got)
			}
		}
		p.Close()
	}
}

func TestPoolReusableAcrossRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.Run(37, func(task, worker int) { total.Add(1) })
	}
	if got := total.Load(); got != 50*37 {
		t.Fatalf("total tasks = %d, want %d", got, 50*37)
	}
}

func TestPoolZeroAndOneTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.Run(0, func(task, worker int) { t.Error("fn called for n=0") })
	ran := false
	p.Run(1, func(task, worker int) {
		if worker != 0 {
			t.Errorf("single task ran on worker %d, want inline worker 0", worker)
		}
		ran = true
	})
	if !ran {
		t.Error("single task did not run")
	}
}

func TestPoolTaskSum(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	p.Run(100, func(task, worker int) { total.Add(int64(task)) })
	if got := total.Load(); got != 99*100/2 {
		t.Fatalf("sum of tasks = %d, want %d", got, 99*100/2)
	}
}

// TestRunForwardsTaskPanic: a task that panics with an error — on
// whichever worker — surfaces as a panic of Run on the caller's
// goroutine, after every worker has stopped, and the pool stays usable.
func TestRunForwardsTaskPanic(t *testing.T) {
	boom := errors.New("injected EIO")
	for _, workers := range []int{1, 2, 4} {
		pool := NewPool(workers)
		var running atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			pool.Run(500, func(task, _ int) {
				running.Add(1)
				defer running.Add(-1)
				if task == 137 {
					panic(boom)
				}
			})
			return nil
		}()
		if got != boom {
			t.Errorf("workers=%d: Run panicked with %v, want the task's error", workers, got)
		}
		if n := running.Load(); n != 0 {
			t.Errorf("workers=%d: %d tasks still running after Run returned", workers, n)
		}
		var ran atomic.Int32
		pool.Run(100, func(int, int) { ran.Add(1) })
		if ran.Load() != 100 {
			t.Errorf("workers=%d: the pool ran %d of 100 tasks after a panic", workers, ran.Load())
		}
		pool.Close()
	}
}
