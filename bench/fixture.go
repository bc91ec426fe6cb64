package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/frogwild"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
	"repro/internal/pagerank"
	"repro/internal/serve"
)

// The reference graph and the estimate's seed are benchmark input, not
// program set-up: one gen.TwitterLike graph and one BuildConfig.Seed
// serve every workload and every -seed, so the deterministic metrics
// (accuracy, simulated network bytes) repeat exactly from run to run and
// move only when the program's arithmetic does. -seed drives the request
// streams. The edge count of the full-size graph is pinned: a generator
// change that silently alters the input fails the run instead of
// reading as a speed-up.
const (
	graphSeed = 1
	buildSeed = 1
	refN      = 50000
	refM      = 1377303

	// pagedMem is the adjacency budget of the ppr_paged open: about a
	// third of the reference graph's 12 MB file.
	pagedMem = 4 << 20

	// numProbes is how many PPR sources the accuracy probe averages over.
	numProbes = 16

	zipfS = 1.1 // skew of every Zipf draw in the benchmark
)

// buildConfig is the estimate configuration of every workload:
// production defaults, nothing tuned for the benchmark.
func buildConfig() serve.BuildConfig {
	return serve.BuildConfig{Machines: 16, MaxK: 100, Seed: buildSeed}
}

// pprOptions is the /v1/ppr configuration of every workload.
var pprOptions = serve.PPROptions{MaxK: 100}

// frogConfig spells out what buildConfig's zero values resolve to, for
// running frogwild.Run directly and reading the network counters that
// serve.Build does not return. Every use asserts the estimate is
// bit-equal to the served ranks, so the two cannot drift apart.
func frogConfig(n int, seed uint64) frogwild.Config {
	return frogwild.Config{
		Walkers:    max(n/6, 100),
		Iterations: 4,
		PS:         0.7,
		Machines:   16,
		Seed:       seed,
	}
}

// fingerprint identifies the input of a run; every result carries it.
type fingerprint struct {
	graphMeta
	snapMeta
}

// graphMeta describes the reference graph's files.
type graphMeta struct {
	N      int      `json:"n"`
	M      int64    `json:"m"`
	CRC64  string   `json:"graphCRC64"` // of the CSR file
	Probes []uint32 `json:"pprProbes"`  // sources of the PPR accuracy probe
}

// snapMeta describes the persisted snapshot. NetBytes is the simulated
// cluster traffic of the FrogWild run that produced it.
type snapMeta struct {
	Seed     uint64 `json:"snapshotSeed"`
	Epoch    uint64 `json:"snapshotEpoch"`
	NetBytes int64  `json:"buildNetBytes"`
}

// fixture locates the generated input on disk.
type fixture struct {
	GraphPath string // degree-relabeled gstore CSR file
	ExactPath string // exact PageRank and the probes' exact PPR vectors
	SnapDir   string // holds the persisted FrogWild snapshot
	fingerprint
	BuildSeconds float64 // what ensureFixture spent
}

func fixtureAt(workdir string, n int) *fixture {
	gdir := filepath.Join(workdir, fmt.Sprintf("graph-n%d", n))
	return &fixture{
		GraphPath: filepath.Join(gdir, "graph.csr"),
		ExactPath: filepath.Join(gdir, "exact.f64"),
		SnapDir:   filepath.Join(workdir, fmt.Sprintf("snap-n%d", n)),
	}
}

// ensureFixture prepares the input for n vertices under workdir, in the
// parent process and outside every metric. The graph and the exact
// solvers' vectors are reused when an earlier run left them there and
// the CSR file still has the recorded checksum. The snapshot is built by
// the program under test, so it is built again on every run: a change to
// frogwild or serve.Build can never be measured or checked against a
// stale estimate.
func ensureFixture(workdir string, n int) (*fixture, error) {
	start := time.Now()
	fx := fixtureAt(workdir, n)
	graphOK := func() bool {
		if fx.N != n || fx.M <= 0 || len(fx.Probes) == 0 {
			return false
		}
		sum, err := fileCRC64(fx.GraphPath)
		return err == nil && fmt.Sprintf("%016x", sum) == fx.CRC64
	}
	if err := buildOnce(filepath.Dir(fx.GraphPath), &fx.graphMeta, graphOK, func(tmp string) (any, error) {
		return buildGraphFixture(tmp, n)
	}); err != nil {
		return nil, fmt.Errorf("graph fixture: %w", err)
	}
	if n == refN && fx.M != refM {
		return nil, fmt.Errorf("graph fixture: the reference graph has %d edges, pinned %d: the generator changed the benchmark's input", fx.M, refM)
	}
	never := func() bool { return false }
	if err := buildOnce(fx.SnapDir, &fx.snapMeta, never, func(tmp string) (any, error) {
		return buildSnapFixture(tmp, fx.GraphPath)
	}); err != nil {
		return nil, fmt.Errorf("snapshot fixture: %w", err)
	}
	fx.BuildSeconds = time.Since(start).Seconds()
	return fx, nil
}

// openFixture is the measuring child's view of what ensureFixture left.
func openFixture(workdir string, n int) (*fixture, error) {
	fx := fixtureAt(workdir, n)
	for path, meta := range map[string]any{filepath.Dir(fx.GraphPath): &fx.graphMeta, fx.SnapDir: &fx.snapMeta} {
		data, err := os.ReadFile(filepath.Join(path, "meta.json"))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, meta); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return fx, nil
}

// buildOnce makes dir hold a finished fixture: when dir/meta.json
// decodes into a meta that ok accepts the directory is reused (a file
// from another version of the benchmark is not), otherwise build fills a
// temporary sibling which is then renamed into place, so an interrupted
// build never leaves a directory that looks finished.
func buildOnce(dir string, meta any, ok func() bool, build func(tmp string) (any, error)) error {
	metaPath := filepath.Join(dir, "meta.json")
	if data, err := os.ReadFile(metaPath); err == nil {
		if json.Unmarshal(data, meta) == nil && ok() {
			return nil
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+".tmp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	m, err := build(tmp)
	if err != nil {
		return err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), data, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return err
	}
	return json.Unmarshal(data, meta)
}

// buildGraphFixture writes the relabeled CSR file and the exact
// reference vectors the accuracy probes compare against.
func buildGraphFixture(dir string, n int) (graphMeta, error) {
	g, err := gen.PowerLaw(gen.TwitterLike(n, graphSeed))
	if err != nil {
		return graphMeta{}, err
	}
	relabeled, err := gstore.Relabel(g)
	if err != nil {
		return graphMeta{}, err
	}
	path := filepath.Join(dir, "graph.csr")
	if err := gstore.Save(path, relabeled); err != nil {
		return graphMeta{}, err
	}
	sum, err := fileCRC64(path)
	if err != nil {
		return graphMeta{}, err
	}
	probes := probeSources(n)
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		return graphMeta{}, err
	}
	vectors := [][]float64{exact.Rank}
	for _, src := range probes {
		ppr, err := frogwild.ExactPPR(g, []graph.VertexID{src}, 0, 1e-10, 0)
		if err != nil {
			return graphMeta{}, err
		}
		vectors = append(vectors, ppr)
	}
	if err := writeVectors(filepath.Join(dir, "exact.f64"), vectors); err != nil {
		return graphMeta{}, err
	}
	return graphMeta{N: n, M: g.NumEdges(), CRC64: fmt.Sprintf("%016x", sum), Probes: probes}, nil
}

// buildSnapFixture persists the FrogWild snapshot, built from a resident
// open, as the first epoch of a snapshot directory ppr_paged warm-starts
// from.
func buildSnapFixture(dir, graphPath string) (snapMeta, error) {
	g, err := gstore.Open(graphPath, gstore.OpenOptions{})
	if err != nil {
		return snapMeta{}, err
	}
	defer g.Close()
	snap, err := serve.Build(g, buildConfig())
	if err != nil {
		return snapMeta{}, err
	}
	serve.NewStore().Publish(snap)
	if err := serve.SaveSnapshot(serve.SnapshotPath(dir), snap); err != nil {
		return snapMeta{}, err
	}
	net, err := frogNetBytes(g, buildSeed, snap.Ranks)
	if err != nil {
		return snapMeta{}, err
	}
	return snapMeta{Seed: buildSeed, Epoch: snap.Epoch, NetBytes: net}, nil
}

// frogNetBytes runs the paper's algorithm with the build's
// configuration and returns the bytes its simulated cluster moved,
// after checking that the run is the one that produced ranks.
func frogNetBytes(g *graph.Graph, seed uint64, ranks []float64) (int64, error) {
	res, err := frogwild.Run(g, frogConfig(g.NumVertices(), seed))
	if err != nil {
		return 0, err
	}
	if !slices.Equal(res.Estimate, ranks) {
		return 0, fmt.Errorf("frogwild.Run(seed %d) is not bit-equal to the served ranks: bench/fixture.go frogConfig no longer mirrors serve.BuildConfig's defaults", seed)
	}
	return res.Stats.Net.TotalBytes, nil
}

// probeSources draws the accuracy probe's PPR sources: distinct
// vertices from the same Zipf law the traffic uses, fixed per graph.
func probeSources(n int) []uint32 {
	r := rand.New(rand.NewPCG(graphSeed, streamKey("probes", 0)))
	z := rand.NewZipf(r, zipfS, 1, uint64(n-1))
	var out []uint32
	for len(out) < min(numProbes, n) {
		if v := uint32(z.Uint64()); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func fileCRC64(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// writeVectors stores equal-length float64 vectors back to back,
// little-endian; readVectors is its inverse.
func writeVectors(path string, vectors [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, v := range vectors {
		if err := binary.Write(f, binary.LittleEndian, v); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func readVectors(path string, n int) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out [][]float64
	for {
		v := make([]float64, n)
		if err := binary.Read(f, binary.LittleEndian, v); err != nil {
			if errors.Is(err, io.EOF) && len(out) > 0 {
				return out, nil
			}
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, v)
	}
}

// exactRef is the ground truth of the accuracy probes.
type exactRef struct {
	PageRank []float64
	PPR      [][]float64 // one vector per fingerprint.Probes entry
}

func (fx *fixture) loadExact() (*exactRef, error) {
	vs, err := readVectors(fx.ExactPath, fx.N)
	if err != nil {
		return nil, err
	}
	if len(vs) != 1+len(fx.Probes) {
		return nil, fmt.Errorf("%s holds %d vectors, want %d", fx.ExactPath, len(vs), 1+len(fx.Probes))
	}
	return &exactRef{PageRank: vs[0], PPR: vs[1:]}, nil
}
