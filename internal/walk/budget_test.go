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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/budget-misses.golden from the current kernel (the committed table was generated at the commit before the miss-batched kernel)")

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
	st := s.Run(r, true, nil)
	r.Release()
	ends := make([]graph.VertexID, len(s.Walkers))
	for i := range s.Walkers {
		ends[i] = s.Walkers[i].Cur
	}
	pc, _ := g.PageCacheStats()
	return pc, st, ends
}

// budgetPoints are the sweep's budgets as functions of the live page
// set (the pages one request touches).
var budgetPoints = []struct {
	name   string
	frames func(live int) int
}{
	{"min", func(int) int { return 8 }},
	{"quarter", func(live int) int { return live / 4 }},
	{"three-quarters", func(live int) int { return live * 3 / 4 }},
}

// readBudgetGolden returns the parent kernel's table.
func readBudgetGolden(t *testing.T) map[string]uint64 {
	t.Helper()
	raw, err := os.ReadFile(budgetGolden)
	if err != nil {
		t.Fatal(err)
	}
	parent := make(map[string]uint64)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var name string
		var n uint64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &n); err != nil {
			t.Fatalf("%s: bad line %q: %v", budgetGolden, line, err)
		}
		parent[name] = n
	}
	return parent
}

// budgetLive is how many pages one request of budgetRun touches.
func budgetLive(t *testing.T) int { return int(readBudgetGolden(t)["live"]) }

// TestBudgetSweepMisses counts page loads of one request at four
// budgets. With room for the live page set no page is loaded twice;
// below it, the miss count must not exceed the page-at-a-time kernel's,
// read from a table generated at the commit before this kernel
// (-update-golden at that commit; the test only uses API both share).
//
// These counts also decided that sweeps alternate direction: with every
// sweep ascending the same three budgets read 865, 734 and 171 pages,
// in elevator order 816, 616 and 143 (the table's kernel: 1161, 1136,
// 767).
func TestBudgetSweepMisses(t *testing.T) {
	path := budgetFixture(t)

	full, _, wantEnds := budgetRun(t, path, 4096) // 256 MiB of frames over a 12 MB file: never evicts
	live := int(full.Misses)
	if full.Evictions != 0 {
		t.Fatalf("full budget evicted %d pages", full.Evictions)
	}
	got := map[string]uint64{"live": full.Misses}
	for _, p := range budgetPoints {
		frames := p.frames(live)
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
		got[p.name] = pc.Misses
		t.Logf("%-14s %3d frames: %5d misses over %d steps", p.name, frames, pc.Misses, st.Steps)
	}

	if *updateGolden {
		var b strings.Builder
		fmt.Fprintf(&b, "live %d\n", got["live"])
		for _, p := range budgetPoints {
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
	parent := readBudgetGolden(t)
	// The live set is a property of the walks, not of the kernel.
	if got["live"] != parent["live"] {
		t.Errorf("one request touches %d pages, the parent kernel's touched %d", got["live"], parent["live"])
	}
	for _, p := range budgetPoints {
		if got[p.name] > parent[p.name] {
			t.Errorf("%s budget: %d misses, the parent kernel's %d", p.name, got[p.name], parent[p.name])
		}
	}
}
