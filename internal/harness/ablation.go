package harness

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/frogwild"
	"repro/internal/topk"
)

// Ablations runs the design-choice ablations DESIGN.md calls out, none
// of which appear as paper figures but all of which probe decisions the
// paper makes implicitly:
//
//   - ingress strategy (the paper uses GraphLab's default random
//     ingress; replication factor is what couples ps to savings),
//   - scatter mode (the paper implements a deterministic split but
//     analyzes independent binomials),
//   - erasure model (Example 9 vs Example 10 of Appendix A).
func Ablations(e *Env) ([]*Table, error) {
	w, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	const machines = 16
	partTab, err := ablatePartitioners(e, w, machines)
	if err != nil {
		return nil, err
	}
	scatterTab, err := ablateScatter(e, w, machines)
	if err != nil {
		return nil, err
	}
	erasureTab, err := ablateErasure(e, w, machines)
	if err != nil {
		return nil, err
	}
	return []*Table{partTab, scatterTab, erasureTab}, nil
}

func ablatePartitioners(e *Env, w *Workload, machines int) (*Table, error) {
	t := &Table{ID: "ablation-ingress", Title: "Ingress strategy ablation (FrogWild ps=0.7, 4 iters)",
		XLabel:  "partitioner",
		Columns: []string{"replication", "edge imbalance", "network bytes", "mass captured k=100"}}
	for _, name := range []string{"random", "oblivious", "grid", "hdrf"} {
		p, err := cluster.ByName(name)
		if err != nil {
			return nil, err
		}
		lay, err := cluster.NewLayout(w.Graph, machines, p, e.Seed)
		if err != nil {
			return nil, err
		}
		res, err := frogwild.Run(w.Graph, frogwild.Config{
			Walkers: w.Walkers, Iterations: fwIters, PS: 0.7, Layout: lay, Seed: e.Seed, Cost: e.Cost,
		})
		if err != nil {
			return nil, err
		}
		s := lay.Stats()
		t.AddRow(name, s.ReplicationFactor, s.EdgeImbalance,
			float64(res.Stats.Net.TotalBytes),
			topk.NormalizedCapturedMass(w.Exact, res.Estimate, 100))
	}
	w.describe(t)
	t.AddNote("lower replication ⇒ fewer mirrors to (not) synchronize ⇒ less sync traffic at fixed ps")
	return t, nil
}

func ablateScatter(e *Env, w *Workload, machines int) (*Table, error) {
	t := &Table{ID: "ablation-scatter", Title: "Scatter mode ablation (split vs binomial)",
		XLabel:  "configuration",
		Columns: []string{"realized/requested frogs", "network bytes", "mass captured k=100"}}
	lay, err := e.Layout(w, machines)
	if err != nil {
		return nil, err
	}
	for _, mode := range []frogwild.ScatterMode{frogwild.ScatterSplit, frogwild.ScatterBinomial} {
		for _, ps := range []float64{1.0, 0.4} {
			res, err := frogwild.Run(w.Graph, frogwild.Config{
				Walkers: w.Walkers, Iterations: fwIters, PS: ps, Layout: lay,
				Seed: e.Seed, Cost: e.Cost, Mode: mode,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%s ps=%.1f", mode, ps),
				float64(res.TotalFrogs)/float64(w.Walkers),
				float64(res.Stats.Net.TotalBytes),
				topk.NormalizedCapturedMass(w.Exact, res.Estimate, 100))
		}
	}
	w.describe(t)
	t.AddNote("split conserves frogs exactly; binomial (the analyzed model) only in expectation")
	return t, nil
}

func ablateErasure(e *Env, w *Workload, machines int) (*Table, error) {
	t := &Table{ID: "ablation-erasure", Title: "Erasure model ablation (Appendix A, Examples 9 vs 10)",
		XLabel:  "configuration",
		Columns: []string{"lost frog fraction", "mass captured k=100"}}
	lay, err := e.Layout(w, machines)
	if err != nil {
		return nil, err
	}
	for _, er := range []frogwild.Erasure{frogwild.ErasureAtLeastOne, frogwild.ErasureIndependent} {
		for _, ps := range []float64{0.4, 0.1} {
			res, err := frogwild.Run(w.Graph, frogwild.Config{
				Walkers: w.Walkers, Iterations: fwIters, PS: ps, Layout: lay,
				Seed: e.Seed, Cost: e.Cost, ErasureModel: er,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("%s ps=%.1f", er, ps),
				float64(res.LostFrogs)/float64(w.Walkers),
				topk.NormalizedCapturedMass(w.Exact, res.Estimate, 100))
		}
	}
	w.describe(t)
	t.AddNote("the paper implements at-least-one (Example 10) and notes independent erasures (Example 9) can lose walkers")
	return t, nil
}
