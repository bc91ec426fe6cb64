package router

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
)

// TestRouterPPRUnsupported pins the router's /v1/ppr refusal: an
// explicit 501 with the shared envelope at code "unsupported" (not a
// 404, not a generic 5xx), counted on its own instrument that both
// /v1/stats and /metrics report.
func TestRouterPPRUnsupported(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	publishRanks(t, store, g, tieRanks(g.NumVertices(), 42))
	rt := newRouter(newShards(t, g, []*serve.Store{store, store}), Options{})

	for i := 0; i < 3; i++ {
		code, body := get(t, rt, "/v1/ppr?source=7&k=5")
		if code != http.StatusNotImplemented {
			t.Fatalf("GET /v1/ppr status = %d, want %d (body %s)", code, http.StatusNotImplemented, body)
		}
		var env api.Error
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatalf("decode envelope: %v (body %s)", err, body)
		}
		if env.Code != api.CodeUnsupported {
			t.Fatalf("envelope code = %q, want %q", env.Code, api.CodeUnsupported)
		}
		if env.Message == "" {
			t.Fatal("envelope message empty; the refusal must say why")
		}
	}

	// The refusals are tracked apart from generic totals: the dedicated
	// counter holds exactly the /v1/ppr hits.
	if got := rt.pprUnsupported.Value(); got != 3 {
		t.Fatalf("pprUnsupported = %d, want 3", got)
	}
	if code, body := get(t, rt, "/v1/stats"); code != http.StatusOK {
		t.Fatalf("GET /v1/stats status = %d (body %s)", code, body)
	}
	series := scrape(t, rt)
	if got := obs.FamilySum(series, "router_ppr_unsupported_total"); got != 3 {
		t.Fatalf("router_ppr_unsupported_total = %v, want 3", got)
	}
	// 3 ppr + 1 stats: refusals still count as routed queries, they are
	// just additionally attributed.
	if got := obs.FamilySum(series, "router_requests_total"); got != 4 {
		t.Fatalf("router_requests_total = %v, want 4", got)
	}
}
