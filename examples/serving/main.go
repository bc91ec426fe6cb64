// Serving: start the top-k PageRank query service in-process on a
// generated graph, query it over HTTP like an external client would,
// and check the answer quality — the captured mass of the served top-k
// against exact PageRank. Demonstrates the snapshot/epoch model: every
// response says which published estimate it came from.
//
// This example assembles the service from internal/serve so it can hold
// the server handle (bind port 0, read counters, shut down in-process);
// external consumers would run cmd/prserve and speak plain HTTP.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	const (
		vertices = 20000
		seed     = 42
		k        = 20
	)
	g, err := repro.TwitterLikeGraph(vertices, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Build the initial FrogWild snapshot and start serving it.
	start := time.Now()
	srv, refresher, err := serve.NewService(g, serve.ServiceConfig{
		Build: serve.BuildConfig{
			Engine:   serve.EngineFrogWild,
			Machines: 16,
			Seed:     seed,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial snapshot built in %.2fs (refreshes so far: %d)\n",
		time.Since(start).Seconds(), refresher.Refreshes())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- obs.ServeListener(ctx, ln, srv) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// Query it like any HTTP client.
	var top struct {
		Epoch   uint64 `json:"epoch"`
		Engine  string `json:"engine"`
		K       int    `json:"k"`
		Entries []struct {
			Vertex uint32  `json:"vertex"`
			Score  float64 `json:"score"`
		} `json:"entries"`
	}
	mustGet(base+fmt.Sprintf("/v1/topk?k=%d", k), &top)
	fmt.Printf("GET /v1/topk?k=%d -> epoch %d, engine %s\n", k, top.Epoch, top.Engine)
	fmt.Printf("%-6s %-10s %s\n", "rank", "vertex", "served estimate")
	for i, e := range top.Entries {
		fmt.Printf("%-6d %-10d %.6e\n", i+1, e.Vertex, e.Score)
	}

	// How good is the served answer? Captured mass of the served top-k
	// set under exact PageRank, versus the best any k-set can do.
	exact, err := repro.ExactPageRank(g, repro.PageRankOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var served, optimal float64
	for _, e := range top.Entries {
		served += exact.Rank[e.Vertex]
	}
	for _, e := range repro.TopK(exact.Rank, k) {
		optimal += e.Score
	}
	fmt.Printf("\ncaptured mass of served top-%d: %.4f (optimal %.4f, ratio %.4f)\n",
		k, served, optimal, served/optimal)

	// The server can make the same comparison on demand.
	var cmp struct {
		Epoch          uint64  `json:"epoch"`
		Against        string  `json:"against"`
		NormalizedMass float64 `json:"normalizedMass"`
	}
	mustGet(base+fmt.Sprintf("/v1/compare?engine=exact&k=%d", k), &cmp)
	fmt.Printf("GET /v1/compare?engine=exact -> epoch %d, normalized mass %.4f\n",
		cmp.Epoch, cmp.NormalizedMass)

	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graceful shutdown after %d queries\n", srv.Queries())
}

// mustGet fetches url and decodes its JSON body into out.
func mustGet(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		log.Fatal(err)
	}
}
