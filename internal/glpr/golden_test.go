package glpr

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/glpr-digests.golden from the current engine")

// runDigest hashes a run's rank float bits and every deterministic
// RunStats field (all but WallSeconds).
func runDigest(res *Result) string {
	var b []byte
	u64 := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	f64s := func(xs []float64) {
		u64(uint64(len(xs)))
		for _, x := range xs {
			u64(math.Float64bits(x))
		}
	}
	f64s(res.Rank)
	s := res.Stats
	u64(uint64(s.Supersteps))
	for c := cluster.TrafficGather; c <= cluster.TrafficControl; c++ {
		u64(uint64(s.Net.ClassBytes(c)))
	}
	u64(uint64(s.Net.TotalBytes))
	u64(uint64(s.Net.EdgeOps))
	u64(uint64(s.Net.VertexOps))
	u64(math.Float64bits(s.SimSeconds))
	f64s(s.SimSecondsPerStep)
	u64(math.Float64bits(s.CPUSeconds))
	f64s(s.AggregateByStep)
	u64(uint64(len(s.ActiveByStep)))
	for _, a := range s.ActiveByStep {
		u64(uint64(a))
	}
	u64(math.Float64bits(s.ReplicationFactor))
	h := sha256.Sum256(b)
	return fmt.Sprintf("%x", h[:16])
}

// glprDigestLines runs GraphLab PR on TwitterLike(20 000), plain and
// relabeled, for every partitioner at 1, 5, 16 and 70 machines, to two
// iterations and to tolerance, and renders one digest line per run.
func glprDigestLines(t *testing.T) string {
	plain, err := gen.PowerLaw(gen.TwitterLike(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	relabeled, err := gstore.Relabel(plain)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"twitter20000", plain}, {"twitter20000-relabeled", relabeled}}
	var sb strings.Builder
	for _, gr := range graphs {
		for _, p := range []cluster.Partitioner{cluster.Random{}, cluster.HDRF{}, cluster.Grid{}, cluster.Oblivious{}} {
			for _, machines := range []int{1, 5, 16, 70} {
				lay, err := cluster.NewLayout(gr.g, machines, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, iters := range []int{2, 0} {
					res, err := Run(gr.g, Config{Iterations: iters, Seed: 1, Layout: lay})
					if err != nil {
						t.Fatal(err)
					}
					mode := "tol"
					if iters > 0 {
						mode = fmt.Sprintf("i%d", iters)
					}
					fmt.Fprintf(&sb, "%s/%s/m%d/%s steps=%d run=%s\n",
						gr.name, p.Name(), machines, mode, res.Stats.Supersteps, runDigest(res))
				}
			}
		}
	}
	return sb.String()
}

// TestGLPRGolden holds GraphLab PR's ranks and every deterministic
// RunStats field to digests generated by the engine that gathered on
// per-machine views into replica states, before the gather moved to the
// masters: the two must agree bit for bit.
func TestGLPRGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("64 GraphLab-PR runs on a 20 000-vertex graph: about 20 s, and ten times that under the race detector")
	}
	got := glprDigestLines(t)
	path := filepath.Join("testdata", "glpr-digests.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			g := "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("GLPR digest line %d differs\n got %s\nwant %s", i+1, g, wl[i])
		}
	}
	t.Fatalf("GLPR digests: %d lines, golden has %d", len(gl), len(wl))
}
