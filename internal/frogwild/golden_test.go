package frogwild

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
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/graph/gstore"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/run-digests.golden from the current engine")

// digest renders the SHA-256 of what the calls wrote, 16 bytes of it.
type digest struct{ b []byte }

func (d *digest) u64(x uint64) { d.b = binary.LittleEndian.AppendUint64(d.b, x) }

func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d *digest) sum() string {
	h := sha256.Sum256(d.b)
	d.b = d.b[:0]
	return fmt.Sprintf("%x", h[:16])
}

// countsDigest hashes a run's per-vertex tally.
func countsDigest(counts []int64) string {
	var d digest
	d.u64(uint64(len(counts)))
	for _, c := range counts {
		d.u64(uint64(c))
	}
	return d.sum()
}

// statsDigest hashes every deterministic RunStats field (all but
// WallSeconds).
func statsDigest(s *gas.RunStats) string {
	var d digest
	d.u64(uint64(s.Supersteps))
	for c := cluster.TrafficGather; c <= cluster.TrafficControl; c++ {
		d.u64(uint64(s.Net.ClassBytes(c)))
	}
	d.u64(uint64(s.Net.TotalBytes))
	d.u64(uint64(s.Net.EdgeOps))
	d.u64(uint64(s.Net.VertexOps))
	d.f64(s.SimSeconds)
	d.u64(uint64(len(s.SimSecondsPerStep)))
	for _, x := range s.SimSecondsPerStep {
		d.f64(x)
	}
	d.f64(s.CPUSeconds)
	d.u64(uint64(len(s.AggregateByStep)))
	for _, x := range s.AggregateByStep {
		d.f64(x)
	}
	d.u64(uint64(len(s.ActiveByStep)))
	for _, a := range s.ActiveByStep {
		d.u64(uint64(a))
	}
	d.f64(s.ReplicationFactor)
	return d.sum()
}

// runDigestLines runs FrogWild on TwitterLike(20 000), plain and
// relabeled, for the Random, Grid and HDRF partitioners at 1, 5, 16 and
// 70 machines, at ps 1, 0.7 and 0.1, in both scatter modes, with both
// estimators and both erasure models (n/6 frogs, 4 iterations, one
// shared layout per partitioning), and renders one line per run: the
// digest of its tally and of its statistics.
func runDigestLines(t *testing.T) string {
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
		for _, p := range []cluster.Partitioner{cluster.Random{}, cluster.Grid{}, cluster.HDRF{}} {
			for _, machines := range []int{1, 5, 16, 70} {
				lay, err := cluster.NewLayout(gr.g, machines, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, ps := range []float64{1, 0.7, 0.1} {
					for _, mode := range []ScatterMode{ScatterSplit, ScatterBinomial} {
						for _, est := range []Estimator{EstimatorEndpoint, EstimatorVisits} {
							for _, erasure := range []Erasure{ErasureAtLeastOne, ErasureIndependent} {
								res, err := Run(gr.g, Config{
									Walkers: gr.g.NumVertices() / 6, Iterations: 4, PS: ps, Seed: 1,
									Mode: mode, Estimator: est, ErasureModel: erasure, Layout: lay,
								})
								if err != nil {
									t.Fatal(err)
								}
								fmt.Fprintf(&sb, "%s/%s/m%d/ps%v/%v/%v/%v counts=%s stats=%s\n",
									gr.name, p.Name(), machines, ps, mode, est, erasure,
									countsDigest(res.Counts), statsDigest(res.Stats))
							}
						}
					}
				}
			}
		}
	}
	return sb.String()
}

// TestRunGolden holds FrogWild's tallies and every deterministic
// RunStats field to digests generated by the engine whose replicas read
// their local out-edges for every synchronized delivery, frogs or none,
// and whose ingress ran its per-edge passes serially: the two must
// agree bit for bit.
func TestRunGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("576 FrogWild runs on a 20 000-vertex graph: several seconds, and ten times that under the race detector")
	}
	got := runDigestLines(t)
	path := filepath.Join("testdata", "run-digests.golden")
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
			t.Fatalf("run digest line %d differs\n got %s\nwant %s", i+1, g, wl[i])
		}
	}
	t.Fatalf("run digests: %d lines, golden has %d", len(gl), len(wl))
}
