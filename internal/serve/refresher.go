package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
)

// BuildFunc computes one fresh (unpublished) snapshot. The generation
// counter starts at 0 and increments per successful build; builders
// should derive their randomness from it so every refresh produces a
// distinct, reproducible estimate.
type BuildFunc func(generation uint64) (*Snapshot, error)

// EngineBuilder returns a BuildFunc running cfg's engine on g with the
// per-generation seed cfg.Seed+generation, so refreshes re-estimate
// with fresh randomness but stay deterministic end to end.
func EngineBuilder(g *graph.Graph, cfg BuildConfig) BuildFunc {
	return func(generation uint64) (*Snapshot, error) {
		c := cfg
		c.Seed = cfg.Seed + generation
		return Build(g, c)
	}
}

// Refresher recomputes snapshots out of band and publishes them to a
// Store: either on a fixed cadence (Run) or on demand (Refresh). Builds
// are serialized — a refresh requested while one is in flight waits for
// its own turn rather than racing it.
type Refresher struct {
	store    *Store
	build    BuildFunc
	interval time.Duration

	// persistDir, when set via PersistTo, receives every published
	// snapshot; persistErr observes save failures.
	persistDir string
	persistErr func(error)

	mu         sync.Mutex // serializes builds; guards generation
	generation uint64

	// Free-standing obs instruments: they count from construction and
	// are optionally exposed on a /metrics registry via Instrument —
	// /v1/stats and the exposition read the very same values.
	refreshes    obs.Counter
	errs         obs.Counter
	persistErrs  obs.Counter
	stageLat     [3]obs.Latency // indexed by stage{Estimate,Index,Persist}
	publishDelay obs.Gauge      // seconds from build done to store swap
}

// Stage indices for stageLat.
const (
	stageEstimate = iota
	stageIndex
	stagePersist
)

// NewRefresher wires a refresher to a store. interval is the Run
// cadence; 0 or negative means Run publishes once and returns
// (on-demand only via Refresh).
func NewRefresher(store *Store, build BuildFunc, interval time.Duration) *Refresher {
	return &Refresher{store: store, build: build, interval: interval}
}

// PersistTo makes the refresher save every snapshot it publishes to
// SnapshotPath(dir), atomically, so the service can warm-start from
// the latest estimate after a restart. Persist failures never block
// serving: they are counted (PersistErrors) and reported through
// onErr (nil = ignore). Call before the refresher is in use.
func (r *Refresher) PersistTo(dir string, onErr func(error)) {
	r.persistDir = dir
	r.persistErr = onErr
}

// PersistErrors returns how many snapshot saves failed.
func (r *Refresher) PersistErrors() uint64 { return r.persistErrs.Value() }

// Instrument registers the refresher's instruments on reg under the
// refresh_* names. The instruments are live either way — Instrument
// only exposes them — so /v1/stats (which reads the same counters) and
// /metrics can never disagree. Call at most once per registry.
func (r *Refresher) Instrument(reg *obs.Registry) {
	reg.RegisterCounter("refresh_builds_total",
		"Snapshots built and published by the background refresher.", nil, &r.refreshes)
	reg.RegisterCounter("refresh_build_errors_total",
		"Background snapshot builds that failed (previous snapshot kept serving).", nil, &r.errs)
	reg.RegisterCounter("refresh_persist_errors_total",
		"Published snapshots that failed to persist to the snapshot dir.", nil, &r.persistErrs)
	for i, stage := range []string{"estimate", "index", "persist"} {
		reg.RegisterLatency("refresh_stage_seconds",
			"Time spent per snapshot build stage.", obs.Labels{"stage": stage}, &r.stageLat[i])
	}
	reg.RegisterGauge("refresh_publish_to_visible_seconds",
		"Delay between the last build finishing and its snapshot becoming visible to queries.",
		nil, &r.publishDelay)
}

// SetGeneration fast-forwards the build-generation counter (never
// backwards). The warm-start path syncs it to the restored snapshot's
// epoch — the counter equals the epoch of the latest published
// snapshot in a single life — so post-restart refreshes continue the
// deterministic seed sequence (seed = base + generation) instead of
// repeating the pre-restart seeds.
func (r *Refresher) SetGeneration(gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen > r.generation {
		r.generation = gen
	}
}

// Refresh builds one snapshot and publishes it, returning the published
// snapshot (with its epoch assigned). Safe for concurrent use.
func (r *Refresher) Refresh() (*Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap, err := r.build(r.generation)
	if err != nil {
		r.errs.Inc()
		return nil, err
	}
	r.generation++
	r.refreshes.Inc()
	built := snap.BuiltAt
	if built.IsZero() {
		built = time.Now()
	}
	pub := r.store.Publish(snap)
	r.publishDelay.Set(time.Since(built).Seconds())
	// Stage timings are only known for Build-produced snapshots; a
	// custom BuildFunc that does not fill them records nothing.
	if pub.EstimateSeconds > 0 {
		r.stageLat[stageEstimate].Observe(secondsToDuration(pub.EstimateSeconds))
	}
	if pub.IndexSeconds > 0 {
		r.stageLat[stageIndex].Observe(secondsToDuration(pub.IndexSeconds))
	}
	if r.persistDir != "" {
		persistStart := time.Now()
		err := SaveSnapshot(SnapshotPath(r.persistDir), pub)
		r.stageLat[stagePersist].Observe(time.Since(persistStart))
		if err != nil {
			r.persistErrs.Inc()
			if r.persistErr != nil {
				r.persistErr(fmt.Errorf("serve: persisting snapshot epoch %d: %w", pub.Epoch, err))
			}
		}
	}
	return pub, nil
}

// secondsToDuration converts a float seconds stage timing back to a
// duration for latency recording.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Refreshes returns how many snapshots this refresher has published.
func (r *Refresher) Refreshes() uint64 { return r.refreshes.Value() }

// Errors returns how many builds failed.
func (r *Refresher) Errors() uint64 { return r.errs.Value() }

// Run publishes an initial snapshot if the store is empty or holds
// only a warm-started (disk-restored) snapshot, then republishes every
// interval until ctx is cancelled. Build errors are counted and
// reported through onError (nil means ignore); the loop keeps going so
// a transient failure doesn't stop serving the previous snapshot. With
// a non-positive interval Run returns after the initial publish.
func (r *Refresher) Run(ctx context.Context, onError func(error)) error {
	report := func(err error) {
		if err != nil && onError != nil {
			onError(err)
		}
	}
	if cur := r.store.Current(); cur == nil || cur.WarmStart {
		if _, err := r.Refresh(); err != nil {
			report(err)
			if r.store.Current() == nil && r.interval <= 0 {
				return err
			}
		}
	}
	if r.interval <= 0 {
		return nil
	}
	tick := time.NewTicker(r.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			_, err := r.Refresh()
			report(err)
		}
	}
}

// Start runs Run on a goroutine of its own and returns the function
// that stops it: stop cancels Run's context and returns once Run has
// returned, so a refresh in flight when stop is called finishes, its
// snapshot saved, before stop returns.
func (r *Refresher) Start(ctx context.Context, onError func(error)) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Run(ctx, onError)
	}()
	return func() {
		cancel()
		<-done
	}
}
