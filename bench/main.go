// Command bench is this repository's benchmark: five named workloads
// driven over real loopback sockets (BENCHMARK.json lists the four the
// driver gates), six end-to-end metrics with fixed regression bounds,
// and a per-layer ledger produced by a separate traced run. README.md in
// this directory says why each workload exists and how to read the
// numbers.
//
//	bash bench/run.sh --workload ppr_paged --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out A.json          # all five workloads
//	bash bench/run.sh --compare A.json B.json
//
// The last line of standard output of a single-workload run is the
// result object the driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all five, one child process each)")
	seed := fs.Uint64("seed", 1, "seed of the request streams")
	seconds := fs.Float64("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the separate traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "append the run records to this JSON file")
	workdir := fs.String("workdir", ".bench_build/work", "where fixtures, span files and scratch files go")
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark definition -compare takes directions and bounds from")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	child := fs.Bool("child", false, "internal: measure -workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		worse, err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive, got %v", *seconds))
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		if _, ok := findWorkload(name); !ok {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}

	if *child {
		// One scheduler thread. The reference box's two processors behave
		// like the two hardware threads of one core of a shared host: a
		// second thread adds nothing to the walk kernel and under a half to
		// the socket-bound workloads, and multiplies the spread between
		// identical runs by three to seven, because every goroutine
		// hand-over between the two is a wake-up the hypervisor schedules.
		// On one thread server, shards and client take turns and a run
		// measures the program's own work.
		runtime.GOMAXPROCS(1)
		fx, err := openFixture(*workdir, refN)
		if err != nil {
			return fail(err)
		}
		w, _ := findWorkload(*workload)
		rec, err := runWorkload(defaultRunConfig(w, *seed, *seconds, *trace == 1, *workdir), fx)
		if err != nil {
			return fail(err)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}

	// The fixture is benchmark input: it is prepared here, outside the
	// measuring process, and its time belongs to no metric.
	fx, err := ensureFixture(*workdir, refN)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "fixture_s %.3f s (n=%d m=%d crc64=%s, excluded from every metric)\n", fx.BuildSeconds, fx.N, fx.M, fx.CRC64)

	// Each workload runs in a fresh child process, so setup_s and
	// rss_peak_mb belong to that workload alone.
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	status := 0
	var last *runRecord
	for _, name := range names {
		cmd := exec.Command(self, "-child", "-workload", name,
			"-seed", strconv.FormatUint(*seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*trace),
			"-workdir", *workdir)
		cmd.Stderr = stderr
		data, err := cmd.Output()
		if err != nil {
			return fail(fmt.Errorf("workload %s: %w", name, err))
		}
		rec := new(runRecord)
		if err := json.Unmarshal(lastLine(data), rec); err != nil {
			return fail(fmt.Errorf("workload %s: reading the child's record: %w", name, err))
		}
		printRecord(stdout, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				return fail(err)
			}
		}
		if !rec.Correct {
			status = 1
		}
		last = rec
	}
	if *workload == "" {
		return status
	}
	line, err := resultLine(last)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}

func lastLine(data []byte) []byte {
	data = bytes.TrimRight(data, "\n")
	return data[bytes.LastIndexByte(data, '\n')+1:]
}

// resultLine is the object the driver reads off the last line: exactly
// the end-to-end metrics on an untraced run, exactly the per-layer
// metrics on a traced one.
func resultLine(rec *runRecord) ([]byte, error) {
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	metrics, err := rec.Metrics.only(defs)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", rec.Workload, err)
	}
	return json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
}

// printRecord lists every metric of a run by name with its unit.
func printRecord(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "== %s seed=%d trace=%d seconds=%g samples=%d tail=p%.4g setups=%d load1=%.2f..%.2f steal=%.2fs\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.Samples, 100*rec.TailPercentile, rec.Setups, rec.Env.LoadStart, rec.Env.LoadEnd, rec.Env.StealSeconds)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := rec.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	verdict := "every check passed"
	if !rec.Correct {
		verdict = fmt.Sprintf("FAILED: %d of %d operations failed, %d output checks failed", rec.Failed, rec.Attempted, rec.CheckFailures)
	}
	fmt.Fprintf(w, "%-32s %s\n", "checks", verdict)
	for _, f := range rec.CheckFirst {
		fmt.Fprintf(w, "  %s\n", f)
	}
	if rec.TraceFile != "" {
		fmt.Fprintf(w, "%-32s %s (%d spans dropped)\n", "spans", rec.TraceFile, rec.SpansDropped)
	}
}

// resultFile is what -out accumulates: one record per run, each
// carrying its own environment and input fingerprint.
type resultFile struct {
	Runs []*runRecord `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := new(resultFile)
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func appendRecord(path string, rec *runRecord) error {
	rf, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf = new(resultFile)
	} else if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, rec)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
