package loadgen

import (
	"bytes"
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

// HandlerTarget drives an http.Handler in-process (no sockets, no
// serialization over a wire): each op becomes a GET served directly by
// Handler.ServeHTTP into a discarding response sink. This measures the
// pure serving path — snapshot lookup, selection, JSON marshal —
// independent of the runner's loopback stack.
type HandlerTarget struct {
	Handler http.Handler
}

// Do implements Target.
func (t HandlerTarget) Do(ctx context.Context, op Op) Result {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, op.URL(), nil)
	if err != nil {
		return Result{Err: err}
	}
	sink := &responseSink{status: http.StatusOK}
	start := time.Now()
	t.Handler.ServeHTTP(sink, req)
	res := Result{Latency: time.Since(start), Status: sink.status}
	if sink.status >= 400 {
		res.Err = decodeEnvelope(sink.status, sink.errBody.Bytes())
	}
	return res
}

// responseSink is a minimal http.ResponseWriter that discards success
// bodies (so the handler's marshal work is fully exercised without
// buffering responses) but keeps the first bytes of failure bodies,
// so the shared error envelope can be surfaced.
type responseSink struct {
	header  http.Header
	status  int
	errBody bytes.Buffer
}

func (s *responseSink) Header() http.Header {
	if s.header == nil {
		s.header = make(http.Header)
	}
	return s.header
}

func (s *responseSink) Write(p []byte) (int, error) {
	if s.status >= 400 && s.errBody.Len() < maxErrorBody {
		keep := p
		if room := maxErrorBody - s.errBody.Len(); len(keep) > room {
			keep = keep[:room]
		}
		s.errBody.Write(keep)
	}
	return len(p), nil
}

func (s *responseSink) WriteHeader(status int) { s.status = status }

// HTTPTarget drives a live server over real HTTP, measuring full
// round-trip latency including the network stack. Bodies are drained
// so keep-alive connections are reused; failure bodies are decoded
// into the shared error envelope.
type HTTPTarget struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Client defaults to a dedicated client with keep-alives.
	Client *http.Client
}

// Do implements Target.
func (t HTTPTarget) Do(ctx context.Context, op Op) Result {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	url := strings.TrimSuffix(t.BaseURL, "/") + op.URL()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Result{Err: err}
	}
	start := time.Now()
	resp, err := client.Do(req)
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
