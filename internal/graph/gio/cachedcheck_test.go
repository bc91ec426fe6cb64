package gio

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestOpenCachedChecked pins the CLIs' shared -graph-cache protocol:
// no cache path builds directly, a generator-backed cache hit with a
// stale vertex count is a loud error naming the cache, and file-backed
// loads (genN = 0) skip the guard.
func TestOpenCachedChecked(t *testing.T) {
	mk := func(n int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			return graph.FromEdges(n, []graph.Edge{{Src: 0, Dst: 1}}), nil
		}
	}

	// Empty cache path: build runs every time, no files involved.
	g, err := OpenCached("", CacheOptions{}, 3, mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3", g.NumVertices())
	}

	// Miss then hit through the cache, count matching.
	cache := filepath.Join(t.TempDir(), "g.csr")
	for range 2 {
		g, err := OpenCached(cache, CacheOptions{}, 5, mk(5))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != 5 {
			t.Fatalf("n = %d, want 5", g.NumVertices())
		}
		g.Close()
	}

	// A hit that no longer matches the generator's -n is the stale
	// guard's case: an error pointing at the cache file, not a silent
	// wrong-sized graph.
	if _, err := OpenCached(cache, CacheOptions{}, 7, mk(7)); err == nil {
		t.Fatal("stale cache accepted")
	} else if !strings.Contains(err.Error(), cache) || !strings.Contains(err.Error(), "delete the cache") {
		t.Fatalf("unhelpful stale-cache error: %v", err)
	}

	// genN = 0 (graph loaded from a file, not generated): the guard is
	// off and the cached graph is served as-is.
	g2, err := OpenCached(cache, CacheOptions{}, 0, mk(7))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if g2.NumVertices() != 5 {
		t.Fatalf("n = %d, want the cached 5", g2.NumVertices())
	}
}
