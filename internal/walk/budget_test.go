package walk_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/graph/pcache"
	"repro/internal/rng"
	"repro/internal/walk"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/budget-misses.golden from the current kernel and page cache")

const budgetGolden = "testdata/budget-misses.golden"

// budgetFixture saves the benchmark's graph shape (50k-vertex
// Twitter-like, degree-relabeled) once per test binary.
func budgetFixture(t *testing.T) string {
	t.Helper()
	g, err := gen.PowerLaw(gen.TwitterLike(50000, 1))
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gstore.Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gstore.Save(path, rg); err != nil {
		t.Fatal(err)
	}
	return path
}

// budgetRun opens path with a pool of frames pages and runs one
// request's worth of walks — 2000 from one source, the served
// configuration — in one Run on one reader. It returns the pool's
// counters, the kernel's, and the endpoints.
func budgetRun(t *testing.T, path string, frames int) (graph.PageCacheStats, walk.Stats, []graph.VertexID) {
	t.Helper()
	g, err := gstore.Open(path, gstore.OpenOptions{Mem: int64(frames) * pcache.PageSize, NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s := walk.Get()
	defer s.Put()
	const source = 4242
	for w := 0; w < 2000; w++ {
		st := rng.DeriveValue(1, source, uint64(w))
		left := min(st.Geometric(pT), 64)
		s.Add(st, source, left)
	}
	r := g.NewAdjReader()
	st := s.Run(r, true, false)
	r.Release()
	ends := make([]graph.VertexID, len(s.Walkers))
	for i := range s.Walkers {
		ends[i] = s.Walkers[i].Cur
	}
	pc, _ := g.PageCacheStats()
	return pc, st, ends
}

// budgetPoints are the paging invariant's budgets as functions of the
// live page set (the pages one request touches).
var budgetPoints = []struct {
	name   string
	frames func(live int) int
}{
	{"min", func(int) int { return 8 }},
	{"quarter", func(live int) int { return live / 4 }},
	{"three-quarters", func(live int) int { return live * 3 / 4 }},
}

// sweepBudgets are TestBudgetSweepMisses' pool sizes in bytes: 8, 18
// and 56 frames of the 64 KiB pages before PR 25, which read 52 224,
// 39 424 and 9 152 KiB there (4 800 KiB live).
var sweepBudgets = []struct {
	name  string
	bytes int64
}{
	{"512KiB", 512 << 10},
	{"1152KiB", 1152 << 10},
	{"3584KiB", 3584 << 10},
}

// readBudgetGolden returns the committed table: KiB read per budget.
func readBudgetGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	raw, err := os.ReadFile(budgetGolden)
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var name string
		var n uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &n); err != nil {
			t.Fatalf("%s: bad line %q: %v", budgetGolden, line, err)
		}
		table[name] = n
	}
	return table
}

// budgetLive is how many pages one request of budgetRun touches.
func budgetLive(t *testing.T) int { return int(readBudgetGolden(t)["live"] << 10 / pcache.PageSize) }

// TestBudgetSweepMisses counts the bytes one request reads (page loads ×
// PageSize) at four budgets. With room for the live page set no page is
// loaded twice; below it, no budget may read more than the committed
// table says (-update-golden rewrites it).
//
// At 64 KiB pages these counts decided that sweeps alternate direction:
// with every sweep ascending the three budgets read 865, 734 and 171
// pages, in elevator order 816, 616 and 143 (the page-at-a-time kernel:
// 1161, 1136, 767).
func TestBudgetSweepMisses(t *testing.T) {
	path := budgetFixture(t)

	kib := func(pc graph.PageCacheStats) uint64 { return pc.Misses * pcache.PageSize >> 10 }
	full, _, wantEnds := budgetRun(t, path, 4096) // 16 MiB of frames over a 12 MB file: never evicts
	if full.Evictions != 0 {
		t.Fatalf("full budget evicted %d pages", full.Evictions)
	}
	got := map[string]uint64{"live": kib(full)}
	for _, p := range sweepBudgets {
		frames := int(p.bytes / pcache.PageSize)
		pc, st, ends := budgetRun(t, path, frames)
		if pc.BudgetPages != frames {
			t.Fatalf("%s: pool has %d frames, want %d", p.name, pc.BudgetPages, frames)
		}
		if pc.ResidentPages > frames {
			t.Errorf("%s: %d pages resident at rest, budget %d", p.name, pc.ResidentPages, frames)
		}
		for i := range ends {
			if ends[i] != wantEnds[i] {
				t.Fatalf("%s: walker %d ends at %d, at full budget at %d", p.name, i, ends[i], wantEnds[i])
			}
		}
		got[p.name] = kib(pc)
		t.Logf("%-8s %4d frames: %5d misses, %5d KiB, over %d steps", p.name, frames, pc.Misses, got[p.name], st.Steps)
	}

	if *updateGolden {
		var b strings.Builder
		fmt.Fprintf(&b, "live %d\n", got["live"])
		for _, p := range sweepBudgets {
			fmt.Fprintf(&b, "%s %d\n", p.name, got[p.name])
		}
		if err := os.MkdirAll(filepath.Dir(budgetGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(budgetGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readBudgetGolden(t)
	// The live set is a property of the walks and the page size, not of
	// the kernel.
	if got["live"] != want["live"] {
		t.Errorf("one request touches %d KiB of pages, the table says %d", got["live"], want["live"])
	}
	for _, p := range sweepBudgets {
		if got[p.name] > want[p.name] {
			t.Errorf("%s budget: %d KiB read, the table says %d", p.name, got[p.name], want[p.name])
		}
	}
}
