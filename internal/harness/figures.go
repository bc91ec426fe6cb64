package harness

import (
	"fmt"

	"repro/internal/frogwild"
	"repro/internal/glpr"
	"repro/internal/sparsify"
	"repro/internal/topk"
)

// psSweep is the synchronization sweep the paper uses everywhere.
var psSweep = []float64{1.0, 0.7, 0.4, 0.1}

// walkerFactors scale the base walker budget like the paper's
// 400K–1400K sweep around 800K.
var walkerFactors = []float64{0.5, 0.75, 1.0, 1.25, 1.5, 1.75}

// fwIters is the paper's default FrogWild iteration count.
const fwIters = 4

// machineSweep mirrors the paper's AWS cluster sizes.
var machineSweep = []int{12, 16, 20, 24}

// glMetrics summarizes one GL PR run.
type glMetrics struct {
	rank       []float64
	totalSim   float64
	perIterSim float64
	netBytes   float64
	cpuSec     float64
	supersteps int
}

func (e *Env) runGLPR(w *Workload, machines, iterations int) (*glMetrics, error) {
	lay, err := e.Layout(w, machines)
	if err != nil {
		return nil, err
	}
	cfg := glpr.Config{Layout: lay, Seed: e.Seed, Cost: e.Cost}
	if iterations > 0 {
		cfg.Iterations = iterations
	} else {
		cfg.Tolerance = 1e-8
	}
	res, err := glpr.Run(w.Graph, cfg)
	if err != nil {
		return nil, err
	}
	return &glMetrics{
		rank:       res.Rank,
		totalSim:   res.Stats.SimSeconds,
		perIterSim: res.Stats.SimSeconds / float64(res.Stats.Supersteps),
		netBytes:   float64(res.Stats.Net.TotalBytes),
		cpuSec:     res.Stats.CPUSeconds,
		supersteps: res.Stats.Supersteps,
	}, nil
}

// fwMetrics summarizes one FrogWild run.
type fwMetrics struct {
	estimate   []float64
	totalSim   float64
	perIterSim float64
	netBytes   float64
	cpuSec     float64
}

func (e *Env) runFW(w *Workload, machines, walkers, iterations int, ps float64) (*fwMetrics, error) {
	lay, err := e.Layout(w, machines)
	if err != nil {
		return nil, err
	}
	res, err := frogwild.Run(w.Graph, frogwild.Config{
		Walkers:    walkers,
		Iterations: iterations,
		PS:         ps,
		Layout:     lay,
		Seed:       e.Seed + uint64(walkers) + uint64(iterations)*7919,
		Cost:       e.Cost,
	})
	if err != nil {
		return nil, err
	}
	return &fwMetrics{
		estimate:   res.Estimate,
		totalSim:   res.Stats.SimSeconds,
		perIterSim: res.Stats.SimSeconds / float64(res.Stats.Supersteps),
		netBytes:   float64(res.Stats.Net.TotalBytes),
		cpuSec:     res.Stats.CPUSeconds,
	}, nil
}

// Fig1 reproduces Figure 1(a)–(d): per-iteration time, total time,
// network bytes and CPU usage versus cluster size on the Twitter-like
// workload, for GL PR (exact, 2 iters, 1 iter) and FrogWild (ps sweep).
func Fig1(e *Env) ([]*Table, error) {
	w, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	a := &Table{ID: "fig1a", Title: "Time per iteration vs machines (Twitter-like)", XLabel: "machines",
		Columns: []string{"GLPR exact", "FW ps=1", "FW ps=0.7", "FW ps=0.4", "FW ps=0.1"}}
	b := &Table{ID: "fig1b", Title: "Total time vs machines (Twitter-like)", XLabel: "machines",
		Columns: []string{"GLPR exact", "GLPR 2it", "GLPR 1it", "FW ps=1", "FW ps=0.1"}}
	c := &Table{ID: "fig1c", Title: "Network bytes vs machines (Twitter-like)", XLabel: "machines",
		Columns: []string{"GLPR exact", "GLPR 2it", "GLPR 1it", "FW ps=1", "FW ps=0.1"}}
	d := &Table{ID: "fig1d", Title: "CPU seconds vs machines (Twitter-like)", XLabel: "machines",
		Columns: []string{"GLPR exact", "GLPR 2it", "GLPR 1it", "FW ps=1", "FW ps=0.1"}}
	for _, machines := range machineSweep {
		exact, err := e.runGLPR(w, machines, 0)
		if err != nil {
			return nil, err
		}
		gl2, err := e.runGLPR(w, machines, 2)
		if err != nil {
			return nil, err
		}
		gl1, err := e.runGLPR(w, machines, 1)
		if err != nil {
			return nil, err
		}
		fw := make(map[float64]*fwMetrics, len(psSweep))
		for _, ps := range psSweep {
			m, err := e.runFW(w, machines, w.Walkers, fwIters, ps)
			if err != nil {
				return nil, err
			}
			fw[ps] = m
		}
		label := fmt.Sprintf("%d", machines)
		a.AddRow(label, exact.perIterSim, fw[1.0].perIterSim, fw[0.7].perIterSim, fw[0.4].perIterSim, fw[0.1].perIterSim)
		b.AddRow(label, exact.totalSim, gl2.totalSim, gl1.totalSim, fw[1.0].totalSim, fw[0.1].totalSim)
		c.AddRow(label, exact.netBytes, gl2.netBytes, gl1.netBytes, fw[1.0].netBytes, fw[0.1].netBytes)
		d.AddRow(label, exact.cpuSec, gl2.cpuSec, gl1.cpuSec, fw[1.0].cpuSec, fw[0.1].cpuSec)
	}
	for _, t := range []*Table{a, b, c, d} {
		w.describe(t)
		t.AddNote("FrogWild: %d walkers, %d iterations", w.Walkers, fwIters)
	}
	return []*Table{a, b, c, d}, nil
}

// Fig2 reproduces Figure 2(a)/(b): captured-mass and exact-
// identification accuracy versus k on the Twitter-like workload with 16
// machines.
func Fig2(e *Env) ([]*Table, error) {
	w, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	const machines = 16
	ks := []int{30, 100, 300, 1000}
	cols := []string{"GLPR 2it", "GLPR 1it", "FW ps=1", "FW ps=0.7", "FW ps=0.4", "FW ps=0.1"}
	mass := &Table{ID: "fig2a", Title: "Accuracy (mass captured) vs k (Twitter-like, 16 machines)", XLabel: "k", Columns: cols}
	ident := &Table{ID: "fig2b", Title: "Accuracy (exact identification) vs k (Twitter-like, 16 machines)", XLabel: "k", Columns: cols}

	gl2, err := e.runGLPR(w, machines, 2)
	if err != nil {
		return nil, err
	}
	gl1, err := e.runGLPR(w, machines, 1)
	if err != nil {
		return nil, err
	}
	fw := make(map[float64]*fwMetrics, len(psSweep))
	for _, ps := range psSweep {
		m, err := e.runFW(w, machines, w.Walkers, fwIters, ps)
		if err != nil {
			return nil, err
		}
		fw[ps] = m
	}
	for _, k := range ks {
		if k >= w.Graph.NumVertices() {
			continue
		}
		mass.AddRow(fmt.Sprintf("%d", k),
			topk.NormalizedCapturedMass(w.Exact, gl2.rank, k),
			topk.NormalizedCapturedMass(w.Exact, gl1.rank, k),
			topk.NormalizedCapturedMass(w.Exact, fw[1.0].estimate, k),
			topk.NormalizedCapturedMass(w.Exact, fw[0.7].estimate, k),
			topk.NormalizedCapturedMass(w.Exact, fw[0.4].estimate, k),
			topk.NormalizedCapturedMass(w.Exact, fw[0.1].estimate, k))
		ident.AddRow(fmt.Sprintf("%d", k),
			topk.ExactIdentification(w.Exact, gl2.rank, k),
			topk.ExactIdentification(w.Exact, gl1.rank, k),
			topk.ExactIdentification(w.Exact, fw[1.0].estimate, k),
			topk.ExactIdentification(w.Exact, fw[0.7].estimate, k),
			topk.ExactIdentification(w.Exact, fw[0.4].estimate, k),
			topk.ExactIdentification(w.Exact, fw[0.1].estimate, k))
	}
	for _, t := range []*Table{mass, ident} {
		w.describe(t)
		t.AddNote("FrogWild: %d walkers, %d iterations", w.Walkers, fwIters)
	}
	return []*Table{mass, ident}, nil
}

// tradeoff builds the accuracy-vs-time-vs-network table shared by
// Figures 3, 4 and 7: every GL PR and FrogWild configuration as a row
// with its total time, network bytes and k=100 captured mass.
func tradeoff(e *Env, w *Workload, machines int, id, title string) (*Table, error) {
	t := &Table{ID: id, Title: title, XLabel: "configuration",
		Columns: []string{"total time (s)", "network bytes", "mass captured k=100"}}
	for _, iters := range []int{1, 2, 0} {
		m, err := e.runGLPR(w, machines, iters)
		if err != nil {
			return nil, err
		}
		label := "GLPR exact"
		if iters > 0 {
			label = fmt.Sprintf("GLPR %dit", iters)
		}
		t.AddRow(label, m.totalSim, m.netBytes, topk.NormalizedCapturedMass(w.Exact, m.rank, 100))
	}
	for _, iters := range []int{3, 4, 5} {
		for _, ps := range psSweep {
			m, err := e.runFW(w, machines, w.Walkers, iters, ps)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("FW it=%d ps=%.1f", iters, ps),
				m.totalSim, m.netBytes, topk.NormalizedCapturedMass(w.Exact, m.estimate, 100))
		}
	}
	w.describe(t)
	t.AddNote("walkers %d; rows are plot points for accuracy-vs-time and accuracy-vs-network", w.Walkers)
	return t, nil
}

// Fig3 reproduces Figures 3(a)/(b) and 4: the accuracy / total time /
// network trade-off on the Twitter-like workload with 24 machines.
func Fig3(e *Env) ([]*Table, error) {
	w, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	t, err := tradeoff(e, w, 24, "fig3", "Accuracy vs time vs network (Twitter-like, 24 machines; also Figure 4)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Fig5 reproduces Figure 5: FrogWild versus uniform sparsification
// (GL PR 2 iterations on the thinned graph) on the Twitter-like
// workload with 12 machines.
func Fig5(e *Env) ([]*Table, error) {
	w, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	const machines = 12
	t := &Table{ID: "fig5", Title: "FrogWild vs uniform sparsification (Twitter-like, 12 machines)",
		XLabel: "configuration", Columns: []string{"total time (s)", "network bytes", "mass captured k=100"}}
	for _, q := range []float64{0.4, 0.7, 1.0} {
		res, err := sparsify.Run(w.Graph, sparsify.Config{
			Keep: q, Iterations: 2, Machines: machines, Seed: e.Seed, Cost: e.Cost,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("sparsify q=%.1f GLPR 2it", q),
			res.Stats.SimSeconds, float64(res.Stats.Net.TotalBytes),
			topk.NormalizedCapturedMass(w.Exact, res.Rank, 100))
	}
	for _, ps := range []float64{0.4, 0.7, 1.0} {
		m, err := e.runFW(w, machines, w.Walkers, fwIters, ps)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("FW it=%d ps=%.1f", fwIters, ps),
			m.totalSim, m.netBytes, topk.NormalizedCapturedMass(w.Exact, m.estimate, 100))
	}
	w.describe(t)
	t.AddNote("sparsification time excludes the sparsify+re-ingress cost itself, favouring the baseline (as the paper does)")
	return []*Table{t}, nil
}

// Fig6 reproduces Figure 6(a)–(d): LiveJournal accuracy and total time
// versus walker count and versus iteration count, across the ps sweep,
// on 20 machines.
func Fig6(e *Env) ([]*Table, error) {
	w, err := e.LiveJournal()
	if err != nil {
		return nil, err
	}
	const machines = 20
	cols := []string{"FW ps=1", "FW ps=0.7", "FW ps=0.4", "FW ps=0.1"}

	accByN := &Table{ID: "fig6a", Title: "Accuracy vs walkers (LiveJournal-like, 20 machines, 4 iters)", XLabel: "walkers", Columns: cols}
	timeByN := &Table{ID: "fig6c", Title: "Total time vs walkers (LiveJournal-like, 20 machines, 4 iters)", XLabel: "walkers", Columns: cols}
	for _, f := range walkerFactors {
		n := int(f * float64(w.Walkers))
		accRow := make([]float64, 0, len(psSweep))
		timeRow := make([]float64, 0, len(psSweep))
		for _, ps := range psSweep {
			m, err := e.runFW(w, machines, n, fwIters, ps)
			if err != nil {
				return nil, err
			}
			accRow = append(accRow, topk.NormalizedCapturedMass(w.Exact, m.estimate, 100))
			timeRow = append(timeRow, m.totalSim)
		}
		accByN.AddRow(fmt.Sprintf("%d", n), accRow...)
		timeByN.AddRow(fmt.Sprintf("%d", n), timeRow...)
	}

	accByIt := &Table{ID: "fig6b", Title: "Accuracy vs iterations (LiveJournal-like, 20 machines, base walkers)", XLabel: "iterations", Columns: cols}
	timeByIt := &Table{ID: "fig6d", Title: "Total time vs iterations (LiveJournal-like, 20 machines, base walkers)", XLabel: "iterations", Columns: cols}
	for _, iters := range []int{2, 3, 4, 5, 6} {
		accRow := make([]float64, 0, len(psSweep))
		timeRow := make([]float64, 0, len(psSweep))
		for _, ps := range psSweep {
			m, err := e.runFW(w, machines, w.Walkers, iters, ps)
			if err != nil {
				return nil, err
			}
			accRow = append(accRow, topk.NormalizedCapturedMass(w.Exact, m.estimate, 100))
			timeRow = append(timeRow, m.totalSim)
		}
		accByIt.AddRow(fmt.Sprintf("%d", iters), accRow...)
		timeByIt.AddRow(fmt.Sprintf("%d", iters), timeRow...)
	}

	// GL PR reference lines (the paper's left-hand bars).
	for _, spec := range []struct {
		iters int
		name  string
	}{{0, "GLPR exact"}, {2, "GLPR 2it"}, {1, "GLPR 1it"}} {
		m, err := e.runGLPR(w, machines, spec.iters)
		if err != nil {
			return nil, err
		}
		note := fmt.Sprintf("%s reference: accuracy(k=100)=%.4f total time=%.4fs",
			spec.name, topk.NormalizedCapturedMass(w.Exact, m.rank, 100), m.totalSim)
		accByN.AddNote("%s", note)
		timeByN.AddNote("%s", note)
		accByIt.AddNote("%s", note)
		timeByIt.AddNote("%s", note)
	}
	tables := []*Table{accByN, accByIt, timeByN, timeByIt}
	for _, t := range tables {
		w.describe(t)
	}
	return tables, nil
}

// Fig7 reproduces Figure 7(a)/(b): the accuracy / time / network
// trade-off on the LiveJournal-like workload with 20 machines.
func Fig7(e *Env) ([]*Table, error) {
	w, err := e.LiveJournal()
	if err != nil {
		return nil, err
	}
	t, err := tradeoff(e, w, 20, "fig7", "Accuracy vs time vs network (LiveJournal-like, 20 machines)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Fig8 reproduces Figure 8: FrogWild network usage versus the number of
// initial walkers (LiveJournal-like, 20 machines, ps=1) — the paper
// reports a linear relationship.
func Fig8(e *Env) ([]*Table, error) {
	w, err := e.LiveJournal()
	if err != nil {
		return nil, err
	}
	const machines = 20
	t := &Table{ID: "fig8", Title: "Network bytes vs walkers (LiveJournal-like, 20 machines, ps=1, 4 iters)",
		XLabel: "walkers", Columns: []string{"network bytes"}}
	for _, f := range walkerFactors {
		n := int(f * float64(w.Walkers))
		m, err := e.runFW(w, machines, n, fwIters, 1.0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), m.netBytes)
	}
	w.describe(t)
	return []*Table{t}, nil
}

// Figure runs one experiment by number (1..8; 4 aliases 3).
func Figure(e *Env, fig int) ([]*Table, error) {
	switch fig {
	case 1:
		return Fig1(e)
	case 2:
		return Fig2(e)
	case 3, 4:
		return Fig3(e)
	case 5:
		return Fig5(e)
	case 6:
		return Fig6(e)
	case 7:
		return Fig7(e)
	case 8:
		return Fig8(e)
	}
	return nil, fmt.Errorf("harness: unknown figure %d (want 1-8)", fig)
}

// All runs every experiment in paper order.
func All(e *Env) ([]*Table, error) {
	var out []*Table
	for _, fig := range []int{1, 2, 3, 5, 6, 7, 8} {
		ts, err := Figure(e, fig)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", fig, err)
		}
		out = append(out, ts...)
	}
	return out, nil
}
