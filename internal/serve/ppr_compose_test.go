package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/topk"
	"repro/internal/walk"
)

// pprWalk is how /v1/ppr walked a source set before it was composed from
// per-source tallies: every walk of the plan in one walk-kernel call,
// each stream derived from all of its labels, the complete-path tally
// scored with its share of all the positions, in no particular order.
// It stays as the reference the composed entries are checked against.
func pprWalk(snap *Snapshot, plan pprPlan) (entries []topk.Entry, st walk.Stats, err error) {
	s := walk.Get()
	defer s.Put()
	r := snap.Graph.NewAdjReader()
	defer r.Release()
	defer catchStorageFault("ppr walk", &err)
	for _, src := range plan.sources {
		for w := 0; w < plan.walksPer; w++ {
			stream := rng.DeriveValue(snap.Seed, pprPurpose, snap.Epoch, uint64(src), uint64(w))
			s.Add(stream, src, pprLengths.Draw(&stream))
		}
	}
	st = s.Run(r, true, true)
	return visitEntries(s, st.Steps), st, nil
}

// visitEntries copies the tally of a Run over s's walkers, which took
// steps steps, out of the Scratch: one entry per distinct vertex, scored
// with its share of the walkers + steps positions.
func visitEntries(s *walk.Scratch, steps uint64) []topk.Entry {
	visits := s.Visits()
	entries := make([]topk.Entry, len(visits))
	inv := 1 / float64(uint64(len(s.Walkers))+steps)
	for i, v := range visits {
		entries[i] = topk.Entry{Vertex: v.Vertex, Score: float64(v.Count) * inv}
	}
	return entries
}

// TestPPRComposeEqualsOneKernelCall: the estimator is linear in the
// source set, so summing per-source tallies gives, entry for entry and
// bit for bit, what one kernel call over all the plan's walks gives.
// Random sets of 1–16 sources with duplicates, at budgets that truncate
// and at the default, on a resident graph and a paged one at the
// smallest pool; the whole tally, in cut order, and the served cut.
func TestPPRComposeEqualsOneKernelCall(t *testing.T) {
	graphs, base := pagedGraphs(t)
	r := rng.New(47)
	n := base.Graph.NumVertices()
	for i := range 12 {
		sources := make([]graph.VertexID, 1+r.Intn(16))
		if i%4 == 0 {
			sources = sources[:1+i/8] // a single source, and its entry in the cache
		}
		for j := range sources {
			if j > 0 && r.Bernoulli(0.25) {
				sources[j] = sources[r.Intn(j)] // a duplicate
			} else {
				sources[j] = graph.VertexID(r.Intn(n))
			}
		}
		opts := PPROptions{WalkBudget: []int{0, 1500, 97, 16}[i%4]}.withDefaults()
		plan, _, _, err := planPPR(sources, 1, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []string{"plain", "paged"} {
			snap := *base
			snap.Graph = graphs[layout]
			ref, _, err := pprWalk(&snap, plan)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(ref, func(i, j int) bool { return topk.Less(ref[j], ref[i]) })
			want := ref
			got, truncated, err := PPRTopK(&snap, sources, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			if truncated != plan.truncated {
				t.Fatalf("%v: truncated %v, plan says %v", sources, truncated, plan.truncated)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %v at %d walks each: composed tally differs from one kernel call (%d vs %d entries)",
					layout, plan.sources, plan.walksPer, len(got), len(want))
			}
			// One source's tally, as the cache holds it, is the whole
			// reference in cut order.
			if len(plan.sources) == 1 {
				tally := new(pprTally)
				if _, err := walkSource(&snap, plan.sources[0], plan.walksPer, tally); err != nil {
					t.Fatal(err)
				}
				if rows := tally.appendEntries(nil, n); !reflect.DeepEqual(rows, want) {
					t.Fatalf("%s, %v: the packed tally is not the reference in cut order", layout, plan.sources)
				}
			}
		}
	}
}

// TestPPROverlappingSourceSets sends concurrent requests whose source
// sets share sources while every kernel slot is taken, so their flights
// overlap: every body is the one PPRTopK's cut renders, and each
// distinct source is walked exactly once — a request walks the sources
// nobody has, joins the walks in flight, and a flight walks one source
// and waits on nothing but a slot.
func TestPPROverlappingSourceSets(t *testing.T) {
	opts := PPROptions{WalksPerSource: 50}
	srv, snap := pprServer(t, opts)
	sets := [][]graph.VertexID{{1, 2, 3, 4}, {3, 4, 5, 6}, {6, 2}, {1}, {7, 5, 1, 3}, {4, 2, 3, 1}, {6}, {2, 7}}
	distinct := map[graph.VertexID]bool{}
	urls := make([]string, len(sets))
	for i, set := range sets {
		ids := make([]string, len(set))
		for j, s := range set {
			ids[j] = fmt.Sprint(s)
			distinct[s] = true
		}
		urls[i] = "/v1/ppr?sources=" + strings.Join(ids, ",") + "&k=9"
	}
	for range cap(srv.ppr.slots) {
		srv.ppr.slots <- struct{}{}
	}
	const rounds = 3
	got := make([]string, rounds*len(sets))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = body(t, srv, urls[i%len(urls)])
		}()
	}
	for srv.ppr.queries.Value() < uint64(len(got)) {
		runtime.Gosched()
	}
	for range cap(srv.ppr.slots) {
		<-srv.ppr.slots
	}
	wg.Wait()
	for i, b := range got {
		if want := pprWantBody(t, snap, sets[i%len(sets)], 9, opts); b != want {
			t.Errorf("GET %s:\n got: %s\nwant: %s", urls[i%len(urls)], b, want)
		}
	}
	if walks, want := srv.ppr.walks.Value(), uint64(len(distinct)*50); walks != want {
		t.Errorf("%d overlapping requests walked %d walks, want %d: each of %d sources once", len(got), walks, want, len(distinct))
	}
}

// TestPPRFaultInOneSourceOfFour: a read fails while the one missing
// source of a four-source request is walked. The request answers the 503
// envelope, the fault is counted once, that source's tally and the set's
// cut are not cached while the other three stay, and once the fault
// clears the same request answers what a healthy server answers.
func TestPPRFaultInOneSourceOfFour(t *testing.T) {
	opts := PPROptions{WalksPerSource: 300}
	healthy, snap := pprServer(t, opts)
	faulty, pager := faultySnapshot(t, snap)
	store := NewStore()
	store.Publish(faulty)
	srv := NewServer(store, ServerOptions{PPR: opts})

	cached := []graph.VertexID{3, 9, 12}
	for _, s := range cached {
		if code, _ := getPPR(t, srv, fmt.Sprintf("/v1/ppr?source=%d", s)); code != http.StatusOK {
			t.Fatalf("source %d: status %d", s, code)
		}
	}
	const url = "/v1/ppr?sources=12,7,3,9&k=10"
	walks := srv.ppr.walks.Value()
	pager.Arm(50)
	code, b := getPPR(t, srv, url)
	wantUnavailable(t, code, b)
	if got := srv.ppr.faults.Value(); got != 1 {
		t.Fatalf("ppr_walk_faults_total %d, want 1", got)
	}
	if got := srv.ppr.walks.Value() - walks; got != 300 {
		t.Fatalf("the faulted request ran %d walks, want the missing source's 300", got)
	}
	key := func(sources ...graph.VertexID) []byte { return appendPPRKey(nil, faulty.Epoch, 300, sources) }
	if _, ok := srv.ppr.cache.Get(key(7)); ok {
		t.Fatal("the faulted source's tally was cached")
	}
	if _, ok := srv.ppr.cache.Get(key(3, 7, 9, 12)); ok {
		t.Fatal("the faulted set's cut was cached")
	}
	for _, s := range cached {
		if _, ok := srv.ppr.cache.Get(key(s)); !ok {
			t.Fatalf("source %d's tally left the cache", s)
		}
	}
	code, b = getPPR(t, srv, url)
	if _, want := getPPR(t, healthy, url); code != http.StatusOK || string(b) != string(want) {
		t.Fatalf("GET %s after the fault: status %d, body differs from a healthy server's: %s", url, code, b)
	}
}

// TestPPRCachedCutsHeldAtTheirSize: the cache keeps each entry's rows in
// a buffer of their size, a source set's cut as well as a source's
// tally, not in the buffer they were packed in. The allocator rounds a
// buffer up to its size class, less than a quarter above its size past
// 16 bytes; a buffer grown by append doubling holds up to twice its rows.
func TestPPRCachedCutsHeldAtTheirSize(t *testing.T) {
	opts := PPROptions{WalksPerSource: 300}
	srv, snap := pprServer(t, opts)
	if code, b := getPPR(t, srv, "/v1/ppr?sources=12,7,3,9&k=10"); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	for _, sources := range [][]graph.VertexID{{3, 7, 9, 12}, {3}, {7}, {9}, {12}} {
		c, ok := srv.ppr.cache.Get(appendPPRKey(nil, snap.Epoch, 300, sources))
		if !ok {
			t.Fatalf("%v not cached", sources)
		}
		if cap(c.rows)-len(c.rows) > len(c.rows)/4+16 {
			t.Fatalf("%v: cached %d bytes of rows in a %d-byte buffer", sources, len(c.rows), cap(c.rows))
		}
	}
}
