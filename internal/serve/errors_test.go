package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve/api"
)

// TestErrorEnvelopeTable pins the (status, code) pair and envelope
// shape of every error the single-node server can produce: the wire
// contract clients and the router's fallback logic rely on.
func TestErrorEnvelopeTable(t *testing.T) {
	g := testGraph(t)
	snap, err := Build(g, BuildConfig{Engine: EngineExact, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Publish(snap)
	srv := NewServer(store, ServerOptions{})

	empty := NewServer(NewStore(), ServerOptions{})

	cases := []struct {
		name      string
		srv       *Server
		method    string
		url       string
		status    int
		code      string
		wantEpoch uint64
	}{
		{"bad k", srv, "GET", "/v1/topk?k=zero", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"negative k", srv, "GET", "/v1/topk?k=-3", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"missing vertex", srv, "GET", "/v1/rank", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"bad vertex", srv, "GET", "/v1/rank?vertex=x", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"vertex out of range", srv, "GET", "/v1/rank?vertex=99999", http.StatusNotFound, api.CodeNotFound, 1},
		{"unknown engine", srv, "GET", "/v1/compare?engine=quantum", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"compare against glpr", srv, "GET", "/v1/compare?engine=glpr", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"compare against frogwild", srv, "GET", "/v1/compare?engine=frogwild", http.StatusBadRequest, api.CodeBadRequest, 1},
		{"post rejected", srv, "POST", "/v1/topk", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, 1},
		{"no snapshot topk", empty, "GET", "/v1/topk", http.StatusServiceUnavailable, api.CodeNoSnapshot, 0},
		{"no snapshot stats", empty, "GET", "/v1/stats", http.StatusServiceUnavailable, api.CodeNoSnapshot, 0},
		{"no snapshot healthz", empty, "GET", "/healthz", http.StatusServiceUnavailable, api.CodeNoSnapshot, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.url, nil)
			rec := httptest.NewRecorder()
			tc.srv.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d", rec.Code, tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("content type %q, want application/json", ct)
			}
			var env api.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope decode: %v (body %q)", err, rec.Body.String())
			}
			if env.Code != tc.code {
				t.Errorf("code %q, want %q", env.Code, tc.code)
			}
			if env.Message == "" {
				t.Error("empty error message")
			}
			if env.Epoch != tc.wantEpoch {
				t.Errorf("epoch %d, want %d", env.Epoch, tc.wantEpoch)
			}
		})
	}
}

// TestHealthzBody pins the healthy single-node /healthz JSON body.
func TestHealthzBody(t *testing.T) {
	g := testGraph(t)
	snap, err := Build(g, BuildConfig{Engine: EngineExact, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.Publish(snap)
	srv := NewServer(store, ServerOptions{})

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var h api.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Epoch != 1 || len(h.Shards) != 0 {
		t.Errorf("health = %+v, want ok/epoch 1/no shards", h)
	}
}

// TestErrorEnvelopeDecodesAsError checks the envelope round-trips as a
// Go error through the api package (the loadgen decoder path).
func TestErrorEnvelopeDecodesAsError(t *testing.T) {
	empty := NewServer(NewStore(), ServerOptions{})
	rec := httptest.NewRecorder()
	empty.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/topk", nil))
	var env api.Error
	if err := json.Unmarshal(mustRead(t, rec.Result().Body), &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error(), api.CodeNoSnapshot) {
		t.Errorf("Error() = %q, want the code embedded", env.Error())
	}
}

func mustRead(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
