package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/graph"
	"repro/internal/graph/gstore"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// checker collects what the output checks found wrong. Any finding
// fails the workload; only the first few are spelled out.
type checker struct {
	count int
	first []string
}

func (c *checker) failf(format string, args ...any) {
	c.count++
	if len(c.first) < 8 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// memWriter is an in-process http.ResponseWriter; with a nil buf the
// body is discarded.
type memWriter struct {
	header http.Header
	buf    *bytes.Buffer
	status int
}

func newMemWriter(keep bool) *memWriter {
	w := &memWriter{header: make(http.Header)}
	if keep {
		w.buf = new(bytes.Buffer)
	}
	return w
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.buf != nil {
		w.buf.Write(p)
	}
	return len(p), nil
}

// inProcess answers path from h without a socket.
func inProcess(h http.Handler, path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	w := newMemWriter(true)
	h.ServeHTTP(w, req)
	if w.status != 0 && w.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, w.status)
	}
	return w.buf.Bytes(), nil
}

func entriesEqual(got []api.TopKEntry, want []topk.Entry) bool {
	return slices.EqualFunc(got, want, func(g api.TopKEntry, w topk.Entry) bool {
		return g.Vertex == w.Vertex && g.Score == w.Score
	})
}

// checkServed re-derives the kept responses of client 0 from the
// snapshot the target serves: topk and rank bodies must equal
// Snapshot.TopK and Snapshot.Rank at the response's epoch, and on
// sharded_tcp be byte-identical to a single-node server over the same
// store; ppr bodies must equal serve.PPRTopK on a resident open, which
// is how ppr_paged is held to the resident answers.
func checkServed(c *checker, t *target, fx *fixture, kept []exchange) error {
	snap := t.snapshot()
	var single *serve.Server
	if t.rt != nil {
		single = serve.NewServer(t.store, serve.ServerOptions{PPR: pprOptions})
	}
	ref := snap // the resident snapshot ppr answers are re-derived on
	if snap.Graph.Paged() {
		g, err := gstore.Open(fx.GraphPath, gstore.OpenOptions{})
		if err != nil {
			return err
		}
		defer g.Close()
		if ref, err = serve.LoadSnapshot(serve.SnapshotPath(fx.SnapDir), g); err != nil {
			return err
		}
		if ref.Epoch != snap.Epoch || ref.Seed != snap.Seed {
			return fmt.Errorf("resident reference is epoch %d seed %d, served is epoch %d seed %d", ref.Epoch, ref.Seed, snap.Epoch, snap.Seed)
		}
	}
	if len(kept) == 0 {
		c.failf("no responses were kept for checking")
	}
	for _, x := range kept {
		path := x.Req.path()
		if x.Body == nil {
			c.failf("%s: request failed", path)
			continue
		}
		if single != nil && x.Req.Kind != reqStats {
			want, err := inProcess(single, path)
			if err != nil {
				return err
			}
			if !bytes.Equal(x.Body, want) {
				c.failf("%s: sharded body differs from the single-node body", path)
			}
		}
		switch x.Req.Kind {
		case reqTopK:
			var got api.TopKResponse
			if err := json.Unmarshal(x.Body, &got); err != nil {
				c.failf("%s: %v", path, err)
			} else if got.Epoch != snap.Epoch || got.Degraded || !entriesEqual(got.Entries, snap.TopK(x.Req.K)) {
				c.failf("%s: body is not Snapshot.TopK(%d) at epoch %d", path, x.Req.K, snap.Epoch)
			}
		case reqRank:
			var got api.RankResponse
			want, _ := snap.Rank(x.Req.Vertex)
			if err := json.Unmarshal(x.Body, &got); err != nil {
				c.failf("%s: %v", path, err)
			} else if got.Epoch != snap.Epoch || got.Degraded || got.Vertex != x.Req.Vertex || got.Rank != want {
				c.failf("%s: body is not Snapshot.Rank at epoch %d", path, snap.Epoch)
			}
		case reqStats:
			var got struct {
				Epoch uint64 `json:"epoch"`
			}
			if err := json.Unmarshal(x.Body, &got); err != nil {
				c.failf("%s: %v", path, err)
			} else if got.Epoch != snap.Epoch {
				c.failf("%s: epoch %d, serving %d", path, got.Epoch, snap.Epoch)
			}
		case reqPPR:
			var got api.PPRResponse
			want, truncated, err := serve.PPRTopK(ref, x.Req.Sources, x.Req.K, pprOptions)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(x.Body, &got); err != nil {
				c.failf("%s: %v", path, err)
			} else if got.Epoch != snap.Epoch || got.Truncated != truncated || !entriesEqual(got.Entries, want) {
				c.failf("%s: body is not serve.PPRTopK on a resident open", path)
			}
		}
	}
	return nil
}

// servedAccuracy is accuracy_mass100 of a serving workload: the
// normalized captured mass at 100 of what the live target answers,
// against the exact solver's vectors in the fixture. Snapshot workloads
// probe /v1/topk?k=100 against exact PageRank; ppr workloads average
// /v1/ppr?k=100 over the fixture's probe sources against exact PPR.
func servedAccuracy(w workloadDef, t *target, fx *fixture) (float64, error) {
	exact, err := fx.loadExact()
	if err != nil {
		return 0, err
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	mass := func(path string, pi []float64) (float64, error) {
		resp, err := hc.Get(t.base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		var got struct {
			Entries []api.TopKEntry `json:"entries"`
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, fmt.Errorf("GET %s: %w", path, err)
		}
		return capturedMass100(pi, got.Entries), nil
	}
	if w.Family == "snapshot" {
		return mass("/v1/topk?k=100", exact.PageRank)
	}
	var sum float64
	for i, src := range fx.Probes {
		m, err := mass(request{Kind: reqPPR, K: 100, Sources: []uint32{src}}.path(), exact.PPR[i])
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum / float64(len(fx.Probes)), nil
}

// capturedMass100 scores a served top-100 list against the exact
// vector pi with topk.NormalizedCapturedMass.
func capturedMass100(pi []float64, entries []api.TopKEntry) float64 {
	est := make([]float64, len(pi))
	for _, e := range entries {
		est[e.Vertex] = e.Score
	}
	return topk.NormalizedCapturedMass(pi, est, 100)
}

// checkRefreshes verifies the refresh workload's published estimates
// and scores them: each generation's Ranks must be bit-equal to
// frogwild.Run's Estimate for the generation's seed, which also makes
// the run's network count the timed build's. It returns the mean
// accuracy and the mean simulated network bytes over the generations.
func checkRefreshes(c *checker, g *graph.Graph, fx *fixture, published []*serve.Snapshot) (accuracy, netBytes float64, err error) {
	exact, err := fx.loadExact()
	if err != nil {
		return 0, 0, err
	}
	for gen, snap := range published {
		if snap.Seed != buildSeed+uint64(gen) || snap.Epoch != uint64(gen)+1 {
			c.failf("generation %d published seed %d epoch %d", gen, snap.Seed, snap.Epoch)
		}
		if !slices.Equal(snap.Top, topk.Top(snap.Ranks, snap.MaxK)) {
			c.failf("generation %d: Top is not topk.Top(Ranks)", gen)
		}
		net, err := frogNetBytes(g, buildSeed+uint64(gen), snap.Ranks)
		if err != nil {
			c.failf("generation %d: %v", gen, err)
			continue
		}
		netBytes += float64(net)
		// Top is the 100 best of Ranks (checked above), so scoring Ranks
		// scores the published Top.
		accuracy += topk.NormalizedCapturedMass(exact.PageRank, snap.Ranks, 100)
	}
	n := float64(len(published))
	return accuracy / n, netBytes / n, nil
}
