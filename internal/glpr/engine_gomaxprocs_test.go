// Equivalence tests for the engine's machine pool: a GraphLab PR run
// must produce byte-identical results — ranks and network meters — no
// matter how many workers run the simulated machines' phases. The pool
// is sized min(GOMAXPROCS, machines), so the tests vary GOMAXPROCS, as
// internal/frogwild's test of the same name does for FrogWild.
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

// equivMachines simulated machines run on a pool of
// min(GOMAXPROCS, equivMachines) workers, so equivProcs gives pools of
// 1 (inline, the serial reference), 2, 3 (which does not divide the
// machine count) and one worker per machine.
const equivMachines = 8

var equivProcs = []int{1, 2, 3, 8}

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
	run := func(tc func() (engineArtifact, error), procs int) (engineArtifact, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return tc()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := run(tc.run, equivProcs[0])
			if err != nil {
				t.Fatalf("GOMAXPROCS=1: %v", err)
			}
			for _, procs := range equivProcs[1:] {
				got, err := run(tc.run, procs)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if !reflect.DeepEqual(got.Floats, ref.Floats) {
					t.Errorf("GOMAXPROCS=%d: estimates diverge from GOMAXPROCS=1", procs)
				}
				if !reflect.DeepEqual(got.Stats, ref.Stats) {
					t.Errorf("GOMAXPROCS=%d: run stats (net meters/series) diverge from GOMAXPROCS=1\n got %+v\nwant %+v",
						procs, got.Stats, ref.Stats)
				}
				if got.Supersteps != ref.Supersteps {
					t.Errorf("GOMAXPROCS=%d: %d supersteps, want %d", procs, got.Supersteps, ref.Supersteps)
				}
			}
		})
	}
}
