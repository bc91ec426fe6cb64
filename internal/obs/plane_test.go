package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve/api"
)

// planeProbe is a Plane over stub routes that record what the
// middleware handed them.
type planeProbe struct {
	*Plane
	queries Counter
	log     bytes.Buffer

	calls   int
	rid     string // as passed to the last handler call
	wrapped bool   // whether that call's writer was a *StatusWriter
}

func newPlaneProbe(p *Plane, logged bool) *planeProbe {
	pp := &planeProbe{Plane: p}
	pp.Registry = NewRegistry()
	pp.Queries = &pp.queries
	if logged {
		pp.Log = NewLogger(&pp.log)
	}
	h := func(status int) Handler {
		return func(w http.ResponseWriter, r *http.Request, rid string) {
			pp.calls++
			pp.rid = rid
			_, pp.wrapped = w.(*StatusWriter)
			w.WriteHeader(status)
		}
	}
	pp.Mount(Routes{
		TopK: h(200), Rank: h(404), PPR: h(501), Compare: h(200), Stats: h(200), Healthz: h(503),
	})
	return pp
}

func (pp *planeProbe) do(method, url, ridHeader string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, nil)
	if ridHeader != "" {
		req.Header.Set(RequestIDHeader, ridHeader)
	}
	rec := httptest.NewRecorder()
	pp.ServeHTTP(rec, req)
	return rec
}

// TestPlaneMethodGate pins the gate both planes share: the five /v1
// endpoints answer GET and HEAD and refuse everything else with the
// 405 envelope (stamped with the plane's epoch, when it has one) before
// the handler or the query counter sees the request; /healthz accepts
// any method and is not a query.
func TestPlaneMethodGate(t *testing.T) {
	gated := []string{"/v1/topk", "/v1/rank", "/v1/ppr", "/v1/compare", "/v1/stats"}
	for _, tc := range []struct {
		name  string
		plane *Plane
		epoch uint64
	}{
		{"serve", &Plane{Component: "serve", Epoch: func() uint64 { return 7 }}, 7},
		{"router", &Plane{Component: "router", ForwardsID: true, Shards: 3}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pp := newPlaneProbe(tc.plane, false)
			for _, path := range gated {
				for _, method := range []string{"POST", "PUT", "DELETE"} {
					rec := pp.do(method, path, "")
					if rec.Code != http.StatusMethodNotAllowed {
						t.Fatalf("%s %s: status %d, want 405", method, path, rec.Code)
					}
					if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
						t.Errorf("%s %s: content type %q", method, path, ct)
					}
					var env api.Error
					if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
						t.Fatalf("%s %s: envelope %q: %v", method, path, rec.Body.String(), err)
					}
					if env.Code != api.CodeMethodNotAllowed || env.Message == "" || env.Epoch != tc.epoch {
						t.Errorf("%s %s: envelope %+v, want code %s at epoch %d", method, path, env, api.CodeMethodNotAllowed, tc.epoch)
					}
				}
			}
			if pp.calls != 0 || pp.queries.Value() != 0 {
				t.Fatalf("refused requests reached the handler (%d calls) or the counter (%d)", pp.calls, pp.queries.Value())
			}
			for _, path := range gated {
				pp.do("GET", path, "")
				pp.do("HEAD", path, "")
			}
			if want := 2 * len(gated); pp.calls != want || pp.queries.Value() != uint64(want) {
				t.Fatalf("GET+HEAD: %d calls, %d counted, want %d each", pp.calls, pp.queries.Value(), want)
			}
			if rec := pp.do("POST", "/healthz", ""); rec.Code != 503 {
				t.Fatalf("POST /healthz: status %d, want the handler's 503", rec.Code)
			}
			if pp.queries.Value() != uint64(2*len(gated)) {
				t.Fatal("/healthz counted as a query")
			}

			// The seventh route: /metrics renders the plane's registry,
			// one latency series per endpoint under the plane's prefix.
			rec := pp.do("GET", "/metrics", "")
			series, err := ParseText(rec.Body.Bytes())
			if rec.Code != 200 || err != nil {
				t.Fatalf("/metrics: status %d, parse error %v", rec.Code, err)
			}
			// A refused request is still a timed one.
			if got := series[tc.plane.Component+`_request_seconds_count{endpoint="topk"}`]; got != 5 {
				t.Errorf("topk latency count = %v, want 5 (3 refused + GET + HEAD)", got)
			}
			if got := series[tc.plane.Component+`_request_seconds_count{endpoint="healthz"}`]; got != 1 {
				t.Errorf("healthz latency count = %v, want 1", got)
			}
		})
	}
}

// TestPlaneRequestID pins who gets a request id: a client-sent one is
// sanitized, echoed and handed to the handler on every plane; one is
// generated only when something will carry it — the request log, or
// handlers that forward it (the router).
func TestPlaneRequestID(t *testing.T) {
	for _, tc := range []struct {
		name             string
		forwards, logged bool
		header           string
		want             string // "" = none, "*" = a generated one
	}{
		{"untraced", false, false, "", ""},
		{"client id echoed", false, false, "abc-123", "abc-123"},
		{"client id sanitized", false, false, "a b\"c", "abc"},
		{"forwarding plane generates", true, false, "", "*"},
		{"forwarding plane keeps the client's", true, false, "abc-123", "abc-123"},
		{"logged request generates", false, true, "", "*"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pp := newPlaneProbe(&Plane{Component: "serve", ForwardsID: tc.forwards}, tc.logged)
			rec := pp.do("GET", "/v1/topk?k=5", tc.header)
			echoed := rec.Header().Get(RequestIDHeader)
			switch tc.want {
			case "":
				if pp.rid != "" || echoed != "" {
					t.Fatalf("untraced request got rid %q (echoed %q)", pp.rid, echoed)
				}
			case "*":
				if pp.rid == "" || echoed != pp.rid {
					t.Fatalf("generated rid %q, echoed %q", pp.rid, echoed)
				}
			default:
				if pp.rid != tc.want || echoed != tc.want {
					t.Fatalf("rid %q, echoed %q, want %q", pp.rid, echoed, tc.want)
				}
			}
			if pp.wrapped != tc.logged {
				t.Fatalf("response writer wrapped = %v with logging %v: the status is only read by the log", pp.wrapped, tc.logged)
			}
		})
	}
}

// TestPlaneRequestLog pins the log line: one per request, carrying the
// component, the resolved id, the request, the status the handler (or
// the gate) wrote, and the plane's epoch and fan-out width.
func TestPlaneRequestLog(t *testing.T) {
	pp := newPlaneProbe(&Plane{Component: "router", ForwardsID: true, Shards: 4, Epoch: func() uint64 { return 9 }}, true)
	pp.do("GET", "/v1/rank?vertex=3", "rid-1")
	pp.do("POST", "/v1/topk", "rid-2")
	pp.do("GET", "/healthz", "")

	lines := strings.Split(strings.TrimSpace(pp.log.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d log lines, want 3:\n%s", len(lines), pp.log.String())
	}
	want := []Entry{
		{RID: "rid-1", Method: "GET", Path: "/v1/rank", Query: "vertex=3", Status: 404},
		{RID: "rid-2", Method: "POST", Path: "/v1/topk", Status: 405},
		{RID: pp.rid, Method: "GET", Path: "/healthz", Status: 503},
	}
	for i, line := range lines {
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		w := want[i]
		if e.Component != "router" || e.Epoch != 9 || e.Shards != 4 || e.Time == "" || e.RID == "" ||
			e.RID != w.RID || e.Method != w.Method || e.Path != w.Path || e.Query != w.Query || e.Status != w.Status {
			t.Errorf("line %d = %+v, want %+v on router/epoch 9/4 shards", i, e, w)
		}
	}
}
