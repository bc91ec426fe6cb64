package cluster_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/glpr"
	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func sharedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.TwitterLike(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newLayout(t *testing.T, g *graph.Graph) *cluster.Layout {
	t.Helper()
	lay, err := cluster.NewLayout(g, 8, cluster.Random{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

func frogConfig(lay *cluster.Layout) frogwild.Config {
	return frogwild.Config{Walkers: 20000, Iterations: 4, PS: 0.7, Seed: 11, Layout: lay}
}

func glprConfig(lay *cluster.Layout) glpr.Config {
	return glpr.Config{Iterations: 3, Seed: 11, Layout: lay}
}

// TestFrogWildNeverBuildsInIndex: FrogWild reads its replicas' local
// edges through the placement and gathers nothing, so a layout that has
// served only FrogWild holds no in-index; the first gathering run
// builds it.
func TestFrogWildNeverBuildsInIndex(t *testing.T) {
	g := sharedGraph(t)
	lay := newLayout(t, g)
	if _, err := frogwild.Run(g, frogConfig(lay)); err != nil {
		t.Fatal(err)
	}
	if cluster.InIndexBuilt(lay) {
		t.Fatal("a FrogWild run built the in-index")
	}
	if _, err := glpr.Run(g, glprConfig(lay)); err != nil {
		t.Fatal(err)
	}
	if !cluster.InIndexBuilt(lay) {
		t.Fatal("a GraphLab-PR run left the in-index unbuilt")
	}
}

// TestFrogWildAndGLPRShareOneLayout runs FrogWild and GraphLab-PR at
// once on one fresh layout, the way the harness and the examples share
// layouts: GLPR's engine builds the in-index while FrogWild reads only
// the placement. Both answer exactly what each answers alone on a layout of
// its own.
func TestFrogWildAndGLPRShareOneLayout(t *testing.T) {
	g := sharedGraph(t)
	frogSolo, err := frogwild.Run(g, frogConfig(newLayout(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	glprSolo, err := glpr.Run(g, glprConfig(newLayout(t, g)))
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		lay := newLayout(t, g)
		var (
			wg           sync.WaitGroup
			frog         *frogwild.Result
			rank         *glpr.Result
			frogE, glprE error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			frog, frogE = frogwild.Run(g, frogConfig(lay))
		}()
		go func() {
			defer wg.Done()
			rank, glprE = glpr.Run(g, glprConfig(lay))
		}()
		wg.Wait()
		if frogE != nil || glprE != nil {
			t.Fatal(frogE, glprE)
		}
		if !reflect.DeepEqual(frog.Counts, frogSolo.Counts) || frog.Stats.Net != frogSolo.Stats.Net {
			t.Fatalf("round %d: FrogWild beside GLPR counted %d frogs over %+v, alone %d over %+v",
				round, frog.TotalFrogs, frog.Stats.Net, frogSolo.TotalFrogs, frogSolo.Stats.Net)
		}
		if !reflect.DeepEqual(rank.Rank, glprSolo.Rank) || rank.Stats.Net != glprSolo.Stats.Net {
			t.Fatalf("round %d: GLPR beside FrogWild differs from GLPR alone (traffic %+v, alone %+v)",
				round, rank.Stats.Net, glprSolo.Stats.Net)
		}
	}
}
