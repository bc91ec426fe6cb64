package serve

import (
	"errors"
	"sync"
)

// flightGroup coalesces concurrent calls with the same key into one
// execution whose result every waiter shares — the standard
// singleflight pattern, reimplemented generically because this module
// is stdlib-only.
type flightGroup[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// errFlightPanicked is what the waiters of a call whose fn panicked get.
var errFlightPanicked = errors.New("serve: the shared computation panicked")

// Do runs fn once per concurrent set of callers sharing key; every
// caller gets the same result. shared reports whether the caller
// joined an in-flight execution instead of starting one. If fn panics,
// the key is freed and the waiters get errFlightPanicked before the
// panic goes on up the caller's stack, so no later call on the key
// waits for a call that will never finish.
func (g *flightGroup[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*flightCall[V])
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.err = errFlightPanicked // stays only if fn never returns
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
