package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve/api"
)

// maxErrorBody bounds how much of a failed response is buffered for
// envelope decoding; success bodies are never buffered.
const maxErrorBody = 4 << 10

// decodeEnvelope turns a failed response body into a structured error:
// the server's shared JSON envelope when it parses (so reports carry
// the machine-readable code and epoch), a generic status error
// otherwise.
func decodeEnvelope(status int, body []byte) error {
	var env api.Error
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		return &env
	}
	return fmt.Errorf("status %d", status)
}

// HTTPTarget drives a live server over real HTTP, measuring full
// round-trip latency including the network stack. Bodies are drained
// so keep-alive connections are reused; failure bodies are decoded
// into the shared error envelope. Make one with NewHTTPTarget.
type HTTPTarget struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	client  *http.Client
}

// NewHTTPTarget returns a target for the server at baseURL with a
// connection pool of conns, one per concurrent request of the run. The
// pool keeps that many idle — with fewer (http.DefaultTransport keeps
// two per host) a worker returning to a full pool closes its connection
// and the report times the TCP handshake of its next request — and
// opens no more: a request that finds its connection still on its way
// back to the pool waits for it.
func NewHTTPTarget(baseURL string, conns int) HTTPTarget {
	return HTTPTarget{BaseURL: baseURL, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
	}}}
}

// Do implements Target.
func (t HTTPTarget) Do(ctx context.Context, op Op) Result {
	url := strings.TrimSuffix(t.BaseURL, "/") + op.URL()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Result{Err: err}
	}
	start := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return Result{Latency: time.Since(start), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		return Result{Latency: time.Since(start), Status: resp.StatusCode,
			Err: decodeEnvelope(resp.StatusCode, body)}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return Result{Latency: time.Since(start), Status: resp.StatusCode, Err: err}
}
