package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// TestPPRGoldenBodies pins /v1/ppr bodies to a file generated at the
// commit before the walk loops were unified (PR 13): fixed graph, seed
// and epoch; single- and four-source requests, inside the walk budget
// and truncated by it. Every storage layout must reproduce the file
// byte for byte — this is what "served bodies did not move" means.
// Regenerate (only when a re-key of PPR streams is intended) with
// -run TestPPRGoldenBodies -update-golden.
func TestPPRGoldenBodies(t *testing.T) {
	urls := []string{
		"/v1/ppr?source=1&k=20",
		"/v1/ppr?sources=3,700,24999,12&k=10",
	}
	budgets := []int{0, 1500} // default (untruncated) and truncating
	graphs, base := pagedGraphs(t)

	var got bytes.Buffer
	for _, budget := range budgets {
		servers := serveVariants(graphs, base, PPROptions{CacheSize: -1, WalkBudget: budget})
		for _, u := range urls {
			want := body(t, servers["plain"], u)
			for name, srv := range servers {
				if b := body(t, srv, u); b != want {
					t.Errorf("budget=%d %s: GET %s differs from the resident body", budget, name, u)
				}
			}
			fmt.Fprintf(&got, "budget=%d GET %s\n%s", budget, u, want)
		}
	}

	path := filepath.Join("testdata", "golden", "ppr-bodies.golden")
	if *updateSnapGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("served PPR bodies moved away from the golden file:\n got: %s\nwant: %s", got.Bytes(), want)
	}
}

// TestPPRTopKFacadeContract pins what the embedding hook keeps apart
// from the handler while sharing its planner: MaxK is an HTTP limit the
// facade does not apply, and an out-of-range source is named in the
// caller's order.
func TestPPRTopKFacadeContract(t *testing.T) {
	_, snap := pprServer(t, PPROptions{})
	wide, _, err := PPRTopK(snap, []graph.VertexID{5}, 150, PPROptions{MaxK: 10})
	if err != nil || len(wide) <= 10 {
		t.Fatalf("k above MaxK: %d entries, err %v; the facade has no k ceiling", len(wide), err)
	}
	narrow, _, err := PPRTopK(snap, []graph.VertexID{5}, 10, PPROptions{})
	if err != nil || !reflect.DeepEqual(narrow, wide[:10]) {
		t.Fatalf("top-10 (err %v) is not a prefix of the top-150", err)
	}
	n := graph.VertexID(snap.Graph.NumVertices())
	_, _, err = PPRTopK(snap, []graph.VertexID{n + 7, 3, n + 2}, 10, PPROptions{})
	if want := fmt.Sprintf("serve: source %d not in graph (n=%d)", n+7, n); err == nil || err.Error() != want {
		t.Fatalf("out-of-range source: error %v, want %q", err, want)
	}
}
