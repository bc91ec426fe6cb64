package gio

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph/gstore"
)

func parseSource(s *Source, args ...string) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.RegisterFlags(fs)
	return fs.Parse(args)
}

// TestSourceFlags pins the shared flag surface: seven flags defaulting
// to the struct's values, with -gen and -graph-mem refused at parse
// time — a usage error naming the bad value, before any graph work.
func TestSourceFlags(t *testing.T) {
	s := Source{Gen: "twitterlike", N: 50000, Seed: 1}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s.RegisterFlags(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"graph": "", "gen": "twitterlike", "n": "50000", "graph-cache": "",
		"graph-mem": "", "graph-relabel": "false", "seed": "1",
	}
	if len(got) != len(want) {
		t.Fatalf("flags %v, want %v", got, want)
	}
	for name, def := range want {
		if got[name] != def {
			t.Errorf("-%s defaults to %q, want %q", name, got[name], def)
		}
	}

	if err := parseSource(&s, "-gen", "livejournallike", "-n", "9", "-graph-mem", "2MiB", "-graph-relabel", "-seed", "4"); err != nil {
		t.Fatal(err)
	}
	if want := (Source{Gen: "livejournallike", N: 9, Mem: 2 << 20, Relabel: true, Seed: 4}); s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	// An explicitly empty value means "none", as it did when these were
	// plain string flags.
	if err := parseSource(&s, "-gen", "", "-graph-mem", ""); err != nil || s.Gen != "" || s.Mem != 0 {
		t.Fatalf("empty values: %+v, %v", s, err)
	}
	for _, bad := range [][]string{{"-gen", "foo"}, {"-graph-mem", "12parsecs"}} {
		err := parseSource(&Source{}, bad...)
		if err == nil || !strings.Contains(err.Error(), bad[1]) {
			t.Errorf("%v: error %v, want one naming %q", bad, err, bad[1])
		}
	}
}

// TestSourceOpen walks the acquisition protocol's branches: generate,
// load a file, neither, build-then-hit through the cache with the
// stale -n guard, and the two paged opens (through the cache, and
// straight from a .csr -graph when no cache is set).
func TestSourceOpen(t *testing.T) {
	dir := t.TempDir()
	gen := Source{Gen: "twitterlike", N: 400, Seed: 3}
	g, err := gen.Open()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 400 {
		t.Fatalf("generated %d vertices, want 400", g.NumVertices())
	}
	edges := g.NumEdges()
	csr := filepath.Join(dir, "g.csr")
	if err := gstore.Save(csr, g); err != nil {
		t.Fatal(err)
	}

	if _, err := (&Source{Gen: "foo", N: 10}).Open(); err == nil || !strings.Contains(err.Error(), `"foo"`) {
		t.Errorf("unknown generator: %v", err)
	}
	if _, err := (&Source{N: 10}).Open(); err == nil {
		t.Error("no -graph and no -gen accepted")
	}
	if _, err := (&Source{N: 10, Cache: filepath.Join(dir, "absent.csr")}).Open(); err == nil || !strings.Contains(err.Error(), "absent.csr") {
		t.Errorf("absent cache with nothing to build it from: %v", err)
	}
	if _, err := (&Source{Gen: "twitterlike", N: 400, Mem: 1 << 20}).Open(); err == nil {
		t.Error("-graph-mem with no gstore file to page from accepted")
	}

	// -graph wins over -gen, and a file-backed graph skips the -n guard.
	file := Source{Path: csr, Gen: "twitterlike", N: 7}
	if fg, err := file.Open(); err != nil || fg.NumEdges() != edges {
		t.Fatalf("open %s: %v", csr, err)
	} else {
		fg.Close()
	}

	cached := gen
	cached.Cache = filepath.Join(dir, "cache.csr")
	for range 2 { // miss, then hit
		cg, err := cached.Open()
		if err != nil {
			t.Fatal(err)
		}
		if cg.NumEdges() != edges {
			t.Fatalf("cache holds %d edges, want %d", cg.NumEdges(), edges)
		}
		cg.Close()
	}
	stale := cached
	stale.N = 500
	if _, err := stale.Open(); err == nil || !strings.Contains(err.Error(), "delete the cache") {
		t.Errorf("stale cache: %v", err)
	}

	for name, src := range map[string]Source{
		"through the cache":  {Gen: "twitterlike", N: 400, Seed: 3, Cache: cached.Cache, Mem: 64 << 10},
		"from a .csr -graph": {Path: csr, Mem: 64 << 10},
	} {
		pg, err := src.Open()
		if err != nil {
			t.Fatalf("paged %s: %v", name, err)
		}
		if _, paged := pg.PageCacheStats(); !paged || pg.NumEdges() != edges {
			t.Errorf("paged %s: paged=%v, %d edges (want %d)", name, paged, pg.NumEdges(), edges)
		}
		pg.Close()
	}
}
