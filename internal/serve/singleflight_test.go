package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup[int, int]
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan int, 1)
	go func() {
		v, err, shared := g.Do(1, func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		if err != nil || shared {
			t.Errorf("leader: v=%d err=%v shared=%v", v, err, shared)
		}
		leaderDone <- v
	}()
	<-started

	// Joiners on the same key must wait for the leader's result, not
	// run their own fn. (A joiner scheduled pathologically late could
	// arrive after the leader lands and legitimately lead a fresh
	// call; its fn tolerates that but flags running while the leader
	// is still in flight.)
	const joiners = 4
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do(1, func() (int, error) {
				select {
				case <-release:
					return 7, nil // fresh call after the flight landed
				default:
					t.Error("joiner fn ran while the leader was in flight")
					return -1, nil
				}
			})
			if v != 7 || err != nil {
				t.Errorf("joiner: v=%d err=%v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// A different key runs independently even while key 1 is in flight.
	if v, err, shared := g.Do(2, func() (int, error) { return 9, nil }); v != 9 || err != nil || shared {
		t.Errorf("independent key: v=%d err=%v shared=%v", v, err, shared)
	}
	time.Sleep(50 * time.Millisecond) // let the joiners reach Do
	close(release)
	wg.Wait()
	if sharedCount.Load() == 0 {
		t.Error("no joiner coalesced onto the in-flight call")
	}
	if v := <-leaderDone; v != 7 {
		t.Errorf("leader result %d", v)
	}

	// After the flight lands, the key is free again: a new call runs.
	if v, _, shared := g.Do(1, func() (int, error) { return 8, nil }); v != 8 || shared {
		t.Errorf("fresh call after completion: v=%d shared=%v", v, shared)
	}
}

func TestFlightGroupPropagatesError(t *testing.T) {
	var g flightGroup[string, int]
	want := errors.New("boom")
	if _, err, _ := g.Do("k", func() (int, error) { return 0, want }); err != want {
		t.Errorf("err = %v", err)
	}
}

// TestFlightGroupReleasesPanickedCall: a fn that panics frees its key
// and hands its waiters errFlightPanicked, and the panic still reaches
// the caller that ran fn. Before, the waiters and every later call on
// the key waited forever.
func TestFlightGroupReleasesPanickedCall(t *testing.T) {
	var g flightGroup[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("bug")
		})
	}()
	<-started
	joined := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() (int, error) { return 5, nil })
		joined <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the joiner reach Do
	close(release)
	if v := <-recovered; v != "bug" {
		t.Fatalf("the caller that ran fn recovered %v, want its panic", v)
	}
	select {
	case err := <-joined:
		// A joiner scheduled late leads a fresh call and gets nil.
		if err != nil && err != errFlightPanicked {
			t.Errorf("joiner err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the joiner still waits on the panicked call")
	}
	if v, err, shared := g.Do("k", func() (int, error) { return 6, nil }); v != 6 || err != nil || shared {
		t.Errorf("fresh call after the panic: v=%d err=%v shared=%v", v, err, shared)
	}
}
