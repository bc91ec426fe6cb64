package obs

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve/api"
)

// StatusWriter wraps an http.ResponseWriter to capture the status code
// for metrics and request logs. Status reports 200 when the handler
// never called WriteHeader explicitly (net/http's implicit default).
type StatusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the first explicit status and forwards it.
func (w *StatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Status returns the response status (200 if never set explicitly).
func (w *StatusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Handler is one endpoint behind a Plane's middleware. rid is the
// request id the middleware resolved: "" when the client sent none and
// nothing will trace the request.
type Handler func(w http.ResponseWriter, r *http.Request, rid string)

// Routes are the query endpoints every serving plane answers.
type Routes struct{ TopK, Rank, PPR, Compare, Stats, Healthz Handler }

// Plane is one HTTP serving plane — the single-node server or the
// router — as the middleware and the listener lifecycle they share see
// it. What differs between the planes is the values of these fields.
type Plane struct {
	// Component names the plane in log lines and prefixes its metric
	// names: "serve" or "router".
	Component string
	// Registry holds the per-endpoint latency recorders and renders
	// /metrics.
	Registry *Registry
	// Log, when enabled, receives one Entry per request.
	Log *Logger
	// Queries counts the method-allowed requests to the /v1 endpoints.
	Queries *Counter
	// ForwardsID says handlers pass the request id on (the router puts
	// it in shard frames), so every request gets one. Otherwise an id
	// the client sent is sanitized and echoed, and one is generated only
	// for the request log.
	ForwardsID bool
	// Shards is the fan-out width stamped on log lines.
	Shards int
	// Epoch, when set, reads the published snapshot epoch, stamped on
	// the middleware's own errors and on log lines.
	Epoch func() uint64

	mux *http.ServeMux

	mu       sync.Mutex
	listener net.Listener
}

// Mount builds the plane's routing table: the six query endpoints
// behind the middleware, and /metrics.
func (p *Plane) Mount(rt Routes) {
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/v1/topk", p.handle("topk", true, rt.TopK))
	p.mux.HandleFunc("/v1/rank", p.handle("rank", true, rt.Rank))
	p.mux.HandleFunc("/v1/ppr", p.handle("ppr", true, rt.PPR))
	p.mux.HandleFunc("/v1/compare", p.handle("compare", true, rt.Compare))
	p.mux.HandleFunc("/v1/stats", p.handle("stats", true, rt.Stats))
	p.mux.HandleFunc("/healthz", p.handle("healthz", false, rt.Healthz))
	p.mux.Handle("/metrics", p.Registry.Handler())
}

// ServeHTTP routes one request through the mounted table.
func (p *Plane) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

func (p *Plane) epoch() uint64 {
	if p.Epoch == nil {
		return 0
	}
	return p.Epoch()
}

// handle wraps one endpoint with instrumentation: a per-endpoint
// latency histogram, request-id resolution, status capture for the
// request log, and — for gated endpoints — GET/HEAD filtering plus the
// /v1 query counter. healthz is not gated, preserving its historical
// accept-anything behavior.
func (p *Plane) handle(endpoint string, gated bool, h Handler) http.HandlerFunc {
	lat := p.Registry.Latency(p.Component+"_request_seconds",
		"Request latency by endpoint (on the router, shard fan-out included).", Labels{"endpoint": endpoint})
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Without a request log the wrapper allocates nothing of its
		// own: the status is only read by the log, so the response
		// writer is not wrapped, and no id is generated for a request
		// nobody will trace.
		logged := p.Log.Enabled()
		var rid string
		if logged || p.ForwardsID || r.Header.Get(RequestIDHeader) != "" {
			rid = EnsureRequestID(w, r)
		}
		var sw *StatusWriter
		if logged {
			sw = &StatusWriter{ResponseWriter: w}
			w = sw
		}
		if gated && r.Method != http.MethodGet && r.Method != http.MethodHead {
			api.WriteError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, p.epoch(), "use GET")
		} else {
			if gated {
				p.Queries.Inc()
			}
			h(w, r, rid)
		}
		dur := time.Since(start)
		lat.Observe(dur)
		if logged {
			p.Log.Log(Entry{
				Component: p.Component,
				RID:       rid,
				Method:    r.Method,
				Path:      r.URL.Path,
				Query:     r.URL.RawQuery,
				Epoch:     p.epoch(),
				Shards:    p.Shards,
				Status:    sw.Status(),
				DurMS:     dur.Seconds() * 1e3,
			})
		}
	}
}

// Serve listens on addr and serves the mounted table until ctx is
// cancelled, then shuts down gracefully (see ServeListener).
func (p *Plane) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.listener = ln
	p.mu.Unlock()
	return ServeListener(ctx, ln, p)
}

// Addr returns the listening address once Serve has bound it ("" before
// that) — handy when addr was ":0".
func (p *Plane) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.listener == nil {
		return ""
	}
	return p.listener.Addr().String()
}

// ListenAndServe serves h on addr until ctx is cancelled (see
// ServeListener); the -pprof-addr side listeners use it.
func ListenAndServe(ctx context.Context, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, h)
}

// Connection limits of every HTTP listener in the module. A peer that
// opens a connection and never finishes a request header, or parks an
// idle keep-alive connection forever, holds a goroutine and a socket for
// as long as it likes without them; with them it holds either for a
// bounded time. They bound the wait for bytes, never a handler: a slow
// request (a cold /v1/ppr, a pprof profile) is not cut short.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ServeListener serves h on ln until ctx is cancelled, then shuts down
// gracefully (in-flight requests get up to 5 seconds) and returns nil.
// Every HTTP listener in the module — both serving planes and the side
// listeners — runs through it: this is the one place an http.Server is
// configured.
func ServeListener(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
