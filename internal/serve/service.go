package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// ServiceConfig bundles everything the one-call service needs.
type ServiceConfig struct {
	// Build says how snapshots are computed (engine, knobs, seed).
	Build BuildConfig
	// RefreshInterval is the background recompute cadence; 0 serves
	// the initial snapshot forever.
	RefreshInterval time.Duration
	// OnRefreshError observes background build failures (nil = ignore;
	// the previous snapshot keeps serving either way). It also
	// receives warm-start and snapshot-persistence problems, which are
	// likewise non-fatal.
	OnRefreshError func(error)
	// SnapshotDir enables snapshot persistence: every published
	// snapshot is saved there (atomically), and NewService warm-starts
	// from the last persisted snapshot when one matches the graph —
	// queries are answered in milliseconds with the persisted epoch's
	// provenance while the first fresh build runs in the background.
	// Empty disables persistence.
	SnapshotDir string
	// Metrics is the registry the server's /metrics endpoint renders;
	// the refresher's instruments are registered on it too. Nil creates
	// a private registry, so /metrics works either way.
	Metrics *obs.Registry
	// RequestLog, when non-nil, receives one JSON line per request.
	RequestLog *obs.Logger
	// PPR tunes the /v1/ppr endpoint (walk budget, per-source cache);
	// the zero value serves with defaults.
	PPR PPROptions
}

// NewService assembles the store/refresher/server stack. With a
// SnapshotDir holding a snapshot that matches g, the service
// warm-starts: the persisted estimate is restored (keeping its epoch
// and provenance) instead of computing one, which takes milliseconds
// instead of a full engine run — callers then run refresher.Start to
// re-derive a fresh estimate in the background (prserve does).
// Otherwise the initial snapshot is built synchronously so the service
// is never up without an answer. A corrupt or mismatched persisted
// snapshot is reported through OnRefreshError and falls back to the
// cold build; it never blocks startup.
func NewService(g *graph.Graph, cfg ServiceConfig) (*Server, *Refresher, error) {
	store := NewStore()
	refresher := NewRefresher(store, EngineBuilder(g, cfg.Build), cfg.RefreshInterval)
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	refresher.Instrument(reg)
	if cfg.SnapshotDir != "" {
		// A snapshot dir that cannot exist is a configuration error:
		// failing loudly here beats a service that looks healthy but
		// silently never persists (and so never warm-starts).
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("serve: snapshot dir: %w", err)
		}
		refresher.PersistTo(cfg.SnapshotDir, cfg.OnRefreshError)
		snap, err := LoadSnapshot(SnapshotPath(cfg.SnapshotDir), g)
		switch {
		case err == nil:
			store.Restore(snap)
			refresher.SetGeneration(snap.Epoch)
		case !errors.Is(err, fs.ErrNotExist):
			if cfg.OnRefreshError != nil {
				cfg.OnRefreshError(fmt.Errorf("serve: warm start: %w", err))
			}
		}
	}
	if store.Current() == nil {
		if _, err := refresher.Refresh(); err != nil {
			return nil, nil, err
		}
	}
	srv := NewServer(store, ServerOptions{
		Refresher:  refresher,
		Metrics:    reg,
		RequestLog: cfg.RequestLog,
		PPR:        cfg.PPR,
	})
	return srv, refresher, nil
}
