// Loadtest: serve the top-k PageRank query service on a loopback port
// and drive it over the socket, as cmd/prload drives a prserve, with
// the deterministic load generator — Zipf-skewed topk/rank/stats
// traffic with a warmup phase — then print per-endpoint throughput and
// latency percentiles, in both closed-loop (workers issue back-to-back)
// and open-loop (fixed Poisson arrival schedule) disciplines. Same
// seed, same query sequence, every run; this is the measurement
// pipeline cmd/prload runs.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro"
	"repro/internal/obs"
)

func main() {
	const (
		vertices = 20000
		seed     = 42
	)
	g, err := repro.TwitterLikeGraph(vertices, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	start := time.Now()
	handler, err := repro.NewServerHandler(g, repro.SnapshotConfig{
		Engine:   repro.ServeEngineFrogWild,
		Machines: 16,
		Seed:     seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- obs.ServeListener(ctx, ln, handler) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("snapshot built in %.2fs; serving on %s\n\n", time.Since(start).Seconds(), base)

	// Closed loop: 8 workers issue queries back-to-back, so offered
	// load adapts to the service rate and throughput is the headline.
	closed := repro.LoadConfig{
		Seed:        seed,
		Queries:     4000,
		Warmup:      500,
		Concurrency: 8,
		Vertices:    g.NumVertices(),
	}
	rep, err := repro.RunLoadTest(ctx, closed, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed loop (8 workers, 4000 queries after 500 warmup):\n")
	printReport(rep)

	// Open loop: arrivals follow a fixed 20k queries/s Poisson
	// schedule regardless of completions, so queueing delay shows up
	// in the tail percentiles instead of throttling the offered load.
	open := closed
	open.OpenLoop = true
	open.Rate = 20000
	rep, err = repro.RunLoadTest(ctx, open, base)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nopen loop (Poisson arrivals at 20000 queries/s):\n")
	printReport(rep)

	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
}

// printReport renders per-endpoint and aggregate stats.
func printReport(rep *repro.LoadReport) {
	fmt.Printf("  %-8s %10s %10s %10s %10s %10s %8s\n",
		"endpoint", "queries", "p50", "p95", "p99", "max", "errors")
	row := func(name string, count, errs uint64, p50, p95, p99, max time.Duration) {
		fmt.Printf("  %-8s %10d %10v %10v %10v %10v %8d\n", name, count, p50, p95, p99, max, errs)
	}
	for _, ep := range []string{"topk", "rank", "stats"} {
		for name, st := range rep.PerEndpoint {
			if string(name) != ep {
				continue
			}
			row(ep, st.Count, st.Errors, st.Hist.QuantileDuration(0.50),
				st.Hist.QuantileDuration(0.95), st.Hist.QuantileDuration(0.99),
				time.Duration(st.Hist.Max()))
		}
	}
	total := rep.Total()
	row("all", total.Count, total.Errors, total.Hist.QuantileDuration(0.50),
		total.Hist.QuantileDuration(0.95), total.Hist.QuantileDuration(0.99),
		time.Duration(total.Hist.Max()))
	fmt.Printf("  throughput: %.0f queries/s over %.3fs wall\n",
		rep.QueriesPerSecond(), rep.Wall.Seconds())
}
