// Equivalence tests for the engine's per-machine worker pools: a
// GraphLab PR run must produce byte-identical results — ranks and
// network meters — no matter how many workers shard each simulated
// machine's phases. The pools are sized from GOMAXPROCS, so the tests
// vary that, as internal/frogwild's test of the same name does for
// FrogWild.
package glpr

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// equivMachines simulated machines split GOMAXPROCS evenly, so
// equivWorkerCounts workers per machine is GOMAXPROCS equivMachines×
// that. The counts deliberately include an odd prime that does not
// divide any chunk count evenly.
const equivMachines = 8

var equivWorkerCounts = []int{1, 2, 4, 7}

var equivSetup = sync.OnceValues(func() (*graph.Graph, *cluster.Layout) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{
		N: 3000, MeanOutDeg: 8, DegExponent: 2.0, PrefExponent: 1.1, Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	lay, err := cluster.NewLayout(g, equivMachines, nil, 11)
	if err != nil {
		panic(err)
	}
	return g, lay
})

// engineArtifact collects everything the acceptance criteria pin:
// per-vertex ranks plus the run's network meters and per-superstep
// engine series.
type engineArtifact struct {
	Floats     []float64
	Stats      gas.RunStats
	Supersteps int
}

// statsArtifact strips the wall-clock field (the only
// machine-dependent quantity) from RunStats for exact comparison.
func statsArtifact(s *gas.RunStats) gas.RunStats {
	c := *s
	c.WallSeconds = 0
	return c
}

func TestEngineBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	g, lay := equivSetup()
	cases := []struct {
		name string
		run  func() (engineArtifact, error)
	}{
		{"graphlabpr", func() (engineArtifact, error) {
			res, err := Run(g, Config{
				Layout: lay, Iterations: 8, Seed: 42,
			})
			if err != nil {
				return engineArtifact{}, err
			}
			return engineArtifact{Floats: res.Rank,
				Stats: statsArtifact(res.Stats), Supersteps: res.Stats.Supersteps}, nil
		}},
	}
	run := func(tc func() (engineArtifact, error), workers int) (engineArtifact, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(equivMachines * workers))
		return tc()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := run(tc.run, 1)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			for _, workers := range equivWorkerCounts[1:] {
				got, err := run(tc.run, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got.Floats, ref.Floats) {
					t.Errorf("workers=%d: estimates diverge from workers=1", workers)
				}
				if !reflect.DeepEqual(got.Stats, ref.Stats) {
					t.Errorf("workers=%d: run stats (net meters/series) diverge from workers=1\n got %+v\nwant %+v",
						workers, got.Stats, ref.Stats)
				}
				if got.Supersteps != ref.Supersteps {
					t.Errorf("workers=%d: %d supersteps, want %d", workers, got.Supersteps, ref.Supersteps)
				}
			}
		})
	}
}
