package gio

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"

	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/graph/pcache"
	"repro/internal/secfile"
)

// Source says where prserve's graph comes from. Its fields are its
// seven graph flags (RegisterFlags), and Open is the one implementation
// of the protocol behind them.
type Source struct {
	Path    string // -graph: a file in any format Load detects
	Gen     string // -gen: twitterlike or livejournallike, used when Path is empty
	N       int    // -n: vertex count when generating
	Cache   string // -graph-cache: gstore file, built on a miss and opened from then on
	Mem     int64  // -graph-mem: page adjacency from the gstore file under this many bytes (0 = resident)
	Relabel bool   // -graph-relabel: degree-order rows when the cache is built
	Seed    uint64 // -seed: the generator's seed (prserve also seeds its engine from it)
}

// RegisterFlags declares the seven flags on fs, each defaulting to the
// field's current value. -gen and -graph-mem are checked while parsing,
// so a misspelt generator or byte size is a usage error raised before
// any graph work.
func (s *Source) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Path, "graph", s.Path, "graph file (gstore CSR or edge list; auto-detected)")
	fs.Func("gen", "generate instead of load: twitterlike|livejournallike", func(v string) error {
		if _, err := generator(v, 0, 0); v != "" && err != nil {
			return err
		}
		s.Gen = v
		return nil
	})
	fs.Lookup("gen").DefValue = s.Gen // a Func flag has no default of its own to show in usage
	fs.IntVar(&s.N, "n", s.N, "vertex count when generating")
	fs.StringVar(&s.Cache, "graph-cache", s.Cache, "gstore CSR cache file: mmap it if present, else build from -graph/-gen and save it")
	fs.Func("graph-mem", "serve bigger-than-RAM graphs: page adjacency from the gstore file under this byte budget (e.g. 512MiB); needs -graph-cache or a .csr -graph", func(v string) (err error) {
		s.Mem = 0
		if v != "" {
			s.Mem, err = pcache.ParseBytes(v)
		}
		return err
	})
	fs.BoolVar(&s.Relabel, "graph-relabel", s.Relabel, "degree-order vertex rows when building the graph cache, clustering hot vertices onto hot pages (external ids unchanged)")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "base seed of the generated graph and the estimate (each refresh derives its own)")
}

// generator returns the configuration of a named synthetic stand-in
// for one of the paper's datasets.
func generator(name string, n int, seed uint64) (gen.PowerLawConfig, error) {
	switch name {
	case "twitterlike":
		return gen.TwitterLike(n, seed), nil
	case "livejournallike":
		return gen.LiveJournalLike(n, seed), nil
	}
	return gen.PowerLawConfig{}, fmt.Errorf("unknown generator %q (want twitterlike|livejournallike)", name)
}

// Open acquires the graph: loaded from Path or, with no Path, generated;
// through the Cache file when one is set (see OpenCached), paged when
// Mem is.
func (s *Source) Open() (*graph.Graph, error) {
	if s.Mem > 0 && s.Cache == "" && s.Path != "" {
		// No cache file, but -graph itself can be the gstore file the
		// page cache reads from.
		return Load(s.Path, s.Mem)
	}
	genN := 0
	if s.Path == "" && s.Gen != "" {
		genN = s.N
	}
	return OpenCached(s.Cache, CacheOptions{Mem: s.Mem, Relabel: s.Relabel}, genN, func() (*graph.Graph, error) {
		switch {
		case s.Path != "":
			return Load(s.Path, 0)
		case s.Gen != "":
			cfg, err := generator(s.Gen, s.N, s.Seed)
			if err != nil {
				return nil, err
			}
			return gen.PowerLaw(cfg)
		}
		if s.Cache != "" {
			return nil, fmt.Errorf("provide -graph FILE or -gen twitterlike|livejournallike: -graph-cache %s does not exist yet", s.Cache)
		}
		return nil, errors.New("provide -graph FILE or -gen twitterlike|livejournallike")
	})
}

// CacheOptions tunes OpenCached.
type CacheOptions struct {
	// Mem, when > 0, opens the cache paged with roughly this many
	// bytes of adjacency resident (gstore.OpenOptions.Mem).
	Mem int64
	// Relabel applies degree-ordered relabeling (gstore.Relabel) to a
	// built graph, so the saved file packs hot rows onto hot pages. A
	// cache that already exists is opened as-is — delete it to re-save
	// with relabeling.
	Relabel bool
}

// openMode names how the cache will be opened — paged with a budget,
// mmap, or buffered — so cache failures say which path broke
// (a paged-open failure and a cache-miss rebuild failure look alike
// without it).
func (o CacheOptions) openMode() string {
	switch {
	case o.Mem > 0:
		return fmt.Sprintf("paged, budget %d bytes", o.Mem)
	case secfile.MmapSupported:
		return "mmap"
	default:
		return "buffered"
	}
}

// OpenCached is the graph-cache protocol the CLIs' -graph-cache flag
// speaks. An empty cache path just builds (a memory budget is then an
// error: paging needs a gstore file to page from). Otherwise, if cache
// exists it is opened zero-copy (mmap) and build is never called; on a
// miss the graph is built, saved to cache atomically, and reopened
// through the cache so the caller gets the file-backed arrays it will
// get on every subsequent start. A corrupt cache is an error, not a
// silent rebuild — delete the file to force a rebuild.
//
// Because the cache key is only the file path, a hit is guarded against
// silently masking changed generation flags: when the graph comes from
// a generator (genN > 0) rather than an input file, a cached graph
// whose vertex count differs from genN is an error telling the user to
// delete the stale cache.
func OpenCached(cache string, opts CacheOptions, genN int, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	if cache == "" && opts.Mem > 0 {
		return nil, errors.New("gio: a -graph-mem budget needs a gstore file to page from: set -graph-cache (or point -graph at a .csr file)")
	}
	open := func() (*graph.Graph, error) {
		return gstore.Open(cache, gstore.OpenOptions{Mem: opts.Mem})
	}
	var g *graph.Graph
	if cache != "" {
		var err error
		if g, err = open(); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("gio: graph cache %s (%s open): %w", cache, opts.openMode(), err)
		}
	}
	if g == nil {
		built, err := build()
		if err != nil {
			return nil, err
		}
		if opts.Relabel {
			relabeled, err := gstore.Relabel(built)
			built.Close()
			if err != nil {
				return nil, fmt.Errorf("gio: relabeling graph: %w", err)
			}
			built = relabeled
		}
		if cache == "" {
			return built, nil
		}
		if err := gstore.Save(cache, built); err != nil {
			built.Close()
			return nil, fmt.Errorf("gio: writing graph cache %s: %w", cache, err)
		}
		// Release the built graph's storage (a no-op for heap-backed
		// graphs, an munmap if build itself loaded a file): the caller
		// gets the cache-backed arrays instead.
		if err := built.Close(); err != nil {
			return nil, fmt.Errorf("gio: releasing built graph: %w", err)
		}
		if g, err = open(); err != nil {
			return nil, fmt.Errorf("gio: reopening graph cache %s (%s open): %w", cache, opts.openMode(), err)
		}
	}
	if genN > 0 && g.NumVertices() != genN {
		n := g.NumVertices()
		g.Close()
		return nil, fmt.Errorf("graph cache %s holds %d vertices but -n is %d; delete the cache to regenerate",
			cache, n, genN)
	}
	return g, nil
}
