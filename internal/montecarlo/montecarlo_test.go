package montecarlo

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph/gen"
	"repro/internal/pagerank"
	"repro/internal/topk"
)

func TestEndPointApproximatesPageRank(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(800, 1))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{WalkersPerVertex: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc := topk.NormalizedCapturedMass(exact.Rank, res.Estimate, 50)
	if acc < 0.9 {
		t.Errorf("endpoint MC captured %.3f of top-50 mass", acc)
	}
}

func TestCompletePathMoreEfficient(t *testing.T) {
	// With the same number of walks, the complete-path estimator should
	// not be (much) worse than endpoint — it uses every visit.
	g, err := gen.PowerLaw(gen.TwitterLike(600, 2))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pagerank.Exact(g, pagerank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Run(g, Config{WalkersPerVertex: 2, Estimator: EndPoint, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Run(g, Config{WalkersPerVertex: 2, Estimator: CompletePath, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	accEP := topk.NormalizedCapturedMass(exact.Rank, ep.Estimate, 100)
	accCP := topk.NormalizedCapturedMass(exact.Rank, cp.Estimate, 100)
	if accCP < accEP-0.05 {
		t.Errorf("complete-path (%.3f) should be at least comparable to endpoint (%.3f)", accCP, accEP)
	}
}

func TestEstimateIsDistribution(t *testing.T) {
	g := gen.Cycle(50)
	for _, est := range []Estimator{EndPoint, CompletePath} {
		res, err := Run(g, Config{WalkersPerVertex: 3, Estimator: est, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range res.Estimate {
			if p < 0 {
				t.Fatal("negative estimate")
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v estimate sums to %v", est, sum)
		}
	}
}

func TestWalkCount(t *testing.T) {
	g := gen.Cycle(10)
	res, err := Run(g, Config{WalkersPerVertex: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks != 40 {
		t.Errorf("walks = %d, want 40", res.Walks)
	}
	if res.TotalSteps <= 0 {
		t.Error("no steps taken?")
	}
}

func TestValidation(t *testing.T) {
	g := gen.Cycle(4)
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := Run(g, Config{Teleport: 2}); err == nil {
		t.Error("bad teleport should error")
	}
	if _, err := Run(g, Config{WalkersPerVertex: -1}); err == nil {
		t.Error("negative walkers should error")
	}
}

func TestRunParallelBitIdentical(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(1200, 9))
	if err != nil {
		t.Fatal(err)
	}
	run := func(est Estimator, procs int) (*Result, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return Run(g, Config{WalkersPerVertex: 3, Estimator: est, Seed: 21})
	}
	for _, est := range []Estimator{EndPoint, CompletePath} {
		ref, err := run(est, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := run(est, workers)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", est, workers, err)
			}
			if got.Walks != ref.Walks || got.TotalSteps != ref.TotalSteps {
				t.Errorf("%v workers=%d: walks/steps (%d,%d) != serial (%d,%d)",
					est, workers, got.Walks, got.TotalSteps, ref.Walks, ref.TotalSteps)
			}
			for v := range ref.Estimate {
				if got.Estimate[v] != ref.Estimate[v] {
					t.Fatalf("%v workers=%d: estimate[%d] = %v != serial %v (not bit-identical)",
						est, workers, v, got.Estimate[v], ref.Estimate[v])
				}
			}
		}
	}
}

func TestEstimatorString(t *testing.T) {
	if EndPoint.String() != "endpoint" || CompletePath.String() != "completepath" {
		t.Error("estimator strings wrong")
	}
}
