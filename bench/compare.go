package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchSpec is what the benchmark reads of BENCHMARK.json: the
// workloads, and each metric with its unit, direction and, for the
// end-to-end ones, regression bound.
type benchSpec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// spread is the distance between the first and third quartile as a
// share of the median, the driver's measure of run-to-run noise; with
// fewer than four values it falls back to the full range, and with one
// value nothing is known and it reads 0.
func spread(values []float64) float64 {
	med := median(values)
	if len(values) < 2 || med == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return (hi - lo) / med
}

// quartiles returns the first and third quartile of sorted as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		i := min(max(int(pos), 1), len(sorted)-1)
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return at(0.25), at(0.75)
}

// verdict applies one metric's direction and bound to the two sides'
// values. It is "worse" when B's median is worse than A's by more than
// the bound, "unresolved" when the run-to-run spread of either side is
// wider than the bound (so neither "ok" nor "worse" can be told apart
// from noise) unless every run of B is no worse than every run of A,
// and "ok" otherwise.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	change := 0.0
	if ma != 0 && mb != ma { // an exact repeat reads 0, not -0
		change = sign * (mb - ma) / ma
	}
	if max(spread(a), spread(b)) > bound {
		// Every run of B at least as good as every run of A settles it.
		if sign > 0 && slices.Max(b) <= slices.Min(a) || sign < 0 && slices.Min(b) >= slices.Max(a) {
			return "ok", change
		}
		return "unresolved", change
	}
	if change > bound {
		return "worse", change
	}
	return "ok", change
}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both result files, the ungated workload's too, and returns how many
// rows are worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (worse int, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return 0, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	values := func(rf *resultFile, workload, name string) []float64 {
		var out []float64
		for _, r := range rf.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
				out = append(out, m.Value)
			}
		}
		return out
	}
	unresolved, rows := 0, 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(va, vb, m.Better, m.Bound)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			rows++
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, median(va), median(vb), 100*change, 100*m.Bound, v, len(va), len(vb))
		}
	}
	if rows == 0 {
		return 0, fmt.Errorf("%s and %s share no untraced (metric, workload) pair", pathA, pathB)
	}
	fmt.Fprintf(w, "%d rows: %d worse, %d unresolved\n", rows, worse, unresolved)
	return worse, nil
}
