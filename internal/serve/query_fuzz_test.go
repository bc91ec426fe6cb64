package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/serve/api"
)

// FuzzQuery drives a raw query string through the real /v1/topk,
// /v1/rank and /v1/compare handlers on a published snapshot. No input
// may panic; every answer is a 200 with the endpoint's body or a 400/404
// with a well-formed error envelope; and whatever k or vertex a 200
// echoes is what the query asked for, within the limits the handler
// enforces (1 <= k, entries <= min(k, n), vertex < n). The seeds are the
// files under testdata/fuzz/FuzzQuery.
func FuzzQuery(f *testing.F) {
	st := NewStore()
	snap := buildSnap(f, st, EngineFrogWild)
	n := len(snap.Ranks)
	h := NewServer(st, ServerOptions{})
	paths := []string{"/v1/topk", "/v1/rank", "/v1/compare"}

	f.Fuzz(func(t *testing.T, endpoint uint8, rawQuery string) {
		path := paths[int(endpoint)%len(paths)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		decode := func(into any) {
			t.Helper()
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(into); err != nil {
				t.Fatalf("%s?%s: status %d, body %q: %v", path, rawQuery, rec.Code, rec.Body, err)
			}
		}
		if rec.Code != http.StatusOK {
			var e api.Error
			decode(&e)
			wantCode := map[int]string{http.StatusBadRequest: api.CodeBadRequest, http.StatusNotFound: api.CodeNotFound}[rec.Code]
			if wantCode == "" || e.Code != wantCode || e.Message == "" || e.Epoch != snap.Epoch {
				t.Fatalf("%s?%s: status %d with envelope %+v", path, rawQuery, rec.Code, e)
			}
			return
		}
		q := (&url.URL{RawQuery: rawQuery}).Query() // what r.URL.Query() hands the handler
		k, kErr := api.ParsePositiveInt(q.Get("k"), 20)
		switch path {
		case "/v1/topk":
			var resp api.TopKResponse
			decode(&resp)
			if kErr != nil || resp.K != min(k, n) || len(resp.Entries) != resp.K {
				t.Fatalf("topk?%s accepted: k=%d (%v), body k=%d with %d entries, n=%d", rawQuery, k, kErr, resp.K, len(resp.Entries), n)
			}
		case "/v1/rank":
			var resp api.RankResponse
			decode(&resp)
			v, err := strconv.ParseUint(q.Get("vertex"), 10, 32)
			if err != nil || v >= uint64(n) || uint64(resp.Vertex) != v {
				t.Fatalf("rank?%s accepted: vertex %d (%v), body vertex %d, n=%d", rawQuery, v, err, resp.Vertex, n)
			}
		case "/v1/compare":
			var resp api.CompareResponse
			decode(&resp)
			if resp.Against != EngineExact || kErr != nil || resp.K != k {
				t.Fatalf("compare?%s accepted: k=%d (%v), body k=%d against %q", rawQuery, k, kErr, resp.K, resp.Against)
			}
		}
	})
}
