package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

func persistTestGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 400, MeanOutDeg: 6, DegExponent: 2.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildPersistSnap(t testing.TB, g *graph.Graph) *Snapshot {
	t.Helper()
	snap, err := Build(g, BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 9, MaxK: 50})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := persistTestGraph(t)
	snap := buildPersistSnap(t, g)
	snap.Epoch = 7 // as if published

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if !got.WarmStart {
		t.Fatal("loaded snapshot must be flagged WarmStart")
	}
	if got.Epoch != 7 || got.Engine != snap.Engine || got.Seed != snap.Seed {
		t.Fatalf("provenance lost: epoch=%d engine=%s seed=%d", got.Epoch, got.Engine, got.Seed)
	}
	if !reflect.DeepEqual(got.Ranks, snap.Ranks) {
		t.Fatal("rank vector not bit-identical")
	}
	if !reflect.DeepEqual(got.Top, snap.Top) {
		t.Fatal("top index not bit-identical")
	}
	if got.MaxK != snap.MaxK || got.Stats != snap.Stats {
		t.Fatalf("metadata lost: maxk=%d stats=%+v", got.MaxK, got.Stats)
	}
	if got.BuiltAt.UnixNano() != snap.BuiltAt.UnixNano() || got.BuildSeconds != snap.BuildSeconds {
		t.Fatal("timing provenance lost")
	}
	// The loaded index must answer queries exactly like the original.
	for _, k := range []int{1, 10, 50, 200} {
		if !reflect.DeepEqual(got.TopK(k), snap.TopK(k)) {
			t.Fatalf("TopK(%d) diverges after round trip", k)
		}
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	g := persistTestGraph(t)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, buildPersistSnap(t, g)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	flip := func(off int) []byte {
		cp := append([]byte{}, raw...)
		cp[off] ^= 0x04
		return cp
	}
	// Bit flips inside each section must fail by checksum.
	n := uint64(g.NumVertices())
	secs := snapSchema.Layout([]uint64{n * 8, 50 * 4, 50 * 8})
	for i, s := range secs {
		if _, err := DecodeSnapshot(flip(int(s.Off)+2), g); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("section %d flip: err = %v, want checksum error", i, err)
		}
	}
	// Header tampering fails structurally.
	if _, err := DecodeSnapshot(flip(0), g); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatal("bad magic accepted")
	}
	for _, cut := range []int{0, snapHeaderSize - 1, len(raw) - 3} {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut]), g); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("cut at %d: err = %v, want format error", cut, err)
		}
	}
	// A snapshot for a different graph is refused.
	other, err := gen.PowerLaw(gen.PowerLawConfig{N: 300, MeanOutDeg: 6, DegExponent: 2.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(append([]byte{}, raw...), other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatal("mismatched graph accepted")
	}
}

// TestSnapshotRefusesNonFiniteTopScore crafts checksummed files whose
// top index holds an infinite rank: each is a format error, not a
// warm start whose every /v1/topk covering that rank fails.
func TestSnapshotRefusesNonFiniteTopScore(t *testing.T) {
	g := persistTestGraph(t)
	n := g.NumVertices()
	for _, bad := range []float64{math.Inf(1), math.Inf(-1)} {
		ranks := make([]float64, n)
		for v := range ranks {
			ranks[v] = 1 / float64(n)
		}
		ranks[5] = bad
		// MaxK = n: the top index holds every vertex, -Inf's included.
		snap, err := FromRanks(g, EngineExact, 1, ranks, n)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(buf.Bytes(), g); !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("top score %v: err = %v, want a format error", bad, err)
		}
	}
}

func TestSaveSnapshotAtomic(t *testing.T) {
	g := persistTestGraph(t)
	dir := t.TempDir()
	path := SnapshotPath(dir)
	snap := buildPersistSnap(t, g)
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite; only the final content is visible and no temp files
	// remain.
	snap2 := buildPersistSnap(t, g)
	snap2.Epoch = 2
	if err := SaveSnapshot(path, snap2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", got.Epoch)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left: %v", ents)
	}
}

// TestGLPRSnapshotStillServes: serving no longer builds glpr, but an
// FWSNAP01 file whose header names it, persisted before, still loads
// and serves with that provenance.
func TestGLPRSnapshotStillServes(t *testing.T) {
	g := persistTestGraph(t)
	ranks := make([]float64, g.NumVertices())
	for v := range ranks {
		ranks[v] = float64(1+v%7) / float64(4*len(ranks))
	}
	saved, err := FromRanks(g, Engine("glpr"), 5, ranks, 20)
	if err != nil {
		t.Fatal(err)
	}
	saved.Epoch = 9
	path := SnapshotPath(t.TempDir())
	if err := SaveSnapshot(path, saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path, g)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore()
	st.Restore(loaded)
	srv := NewServer(st, ServerOptions{})
	for _, url := range []string{"/v1/topk?k=5", "/v1/stats"} {
		if got := body(t, srv, url); !strings.Contains(got, `"engine":"glpr"`) {
			t.Errorf("GET %s over a glpr snapshot: %s", url, got)
		}
	}
}

func TestStoreRestorePreservesEpoch(t *testing.T) {
	st := NewStore()
	s := &Snapshot{Epoch: 41}
	st.Restore(s)
	if st.Current() != s || st.epoch.Load() != 41 {
		t.Fatalf("restore: current=%p epoch=%d", st.Current(), st.epoch.Load())
	}
	// The next publish moves strictly past the restored epoch.
	next := st.Publish(&Snapshot{})
	if next.Epoch != 42 {
		t.Fatalf("publish after restore: epoch = %d, want 42", next.Epoch)
	}
	// Zero-epoch snapshots get a fresh epoch.
	st2 := NewStore()
	if got := st2.Restore(&Snapshot{}); got.Epoch != 1 {
		t.Fatalf("zero-epoch restore: epoch = %d, want 1", got.Epoch)
	}
}

// TestWarmStartServesBeforeRecompute pins the acceptance criterion: a
// service pointed at a snapshot directory answers /v1/topk from the
// persisted snapshot — carrying the persisted epoch's provenance —
// without running any engine build, and the refresher then re-derives
// a fresh snapshot in the background.
func TestWarmStartServesBeforeRecompute(t *testing.T) {
	g := persistTestGraph(t)
	dir := t.TempDir()

	// First life: cold start with persistence on; the refresh is
	// persisted to dir.
	cfg := ServiceConfig{
		Build:       BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 9, MaxK: 50},
		SnapshotDir: dir,
	}
	srv1, _, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := srv1.Snapshot()
	if first == nil || first.WarmStart {
		t.Fatal("cold start should have built a fresh snapshot")
	}

	// Second life: the build function must NOT run during startup —
	// inject one that fails the test if called synchronously.
	store := NewStore()
	buildCalls := 0
	refresher := NewRefresher(store, func(gen uint64) (*Snapshot, error) {
		buildCalls++
		return Build(g, BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 9 + gen, MaxK: 50})
	}, 0)
	refresher.PersistTo(dir, nil)
	snap, err := LoadSnapshot(SnapshotPath(dir), g)
	if err != nil {
		t.Fatal(err)
	}
	store.Restore(snap)
	srv2 := NewServer(store, ServerOptions{Refresher: refresher})

	if buildCalls != 0 {
		t.Fatal("warm start ran an engine build")
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/topk?k=10", nil)
	srv2.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Epoch  uint64 `json:"epoch"`
		Engine string `json:"engine"`
		Seed   uint64 `json:"seed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != first.Epoch || resp.Engine != string(first.Engine) || resp.Seed != first.Seed {
		t.Fatalf("warm response provenance %+v, want epoch=%d engine=%s seed=%d",
			resp, first.Epoch, first.Engine, first.Seed)
	}
	if buildCalls != 0 {
		t.Fatal("query triggered a build")
	}

	// The background refresher treats a warm store as due: one Run
	// publishes a strictly newer epoch.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := refresher.Run(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if buildCalls != 1 {
		t.Fatalf("background refresh builds = %d, want 1", buildCalls)
	}
	cur := store.Current()
	if cur.WarmStart || cur.Epoch <= first.Epoch {
		t.Fatalf("refresh did not supersede warm snapshot (epoch %d vs %d)", cur.Epoch, first.Epoch)
	}
}

// TestNewServiceWarmStart covers the one-call path: corrupt snapshots
// fall back to a cold build with the error surfaced, valid ones are
// restored.
func TestNewServiceWarmStart(t *testing.T) {
	g := persistTestGraph(t)
	dir := t.TempDir()
	cfg := ServiceConfig{
		Build:       BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 9, MaxK: 50},
		SnapshotDir: dir,
	}
	srv1, _, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	srv2, refresher2, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := srv2.Snapshot()
	if !snap.WarmStart {
		t.Fatal("second service did not warm-start")
	}
	if snap.Epoch != srv1.Snapshot().Epoch {
		t.Fatal("warm start lost the persisted epoch")
	}
	// The seed sequence continues across the restart: the restored
	// epoch fast-forwards the build generation, so the next refresh
	// uses seed base+epoch instead of repeating base+0.
	fresh, err := refresher2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Build.Seed + snap.Epoch; fresh.Seed != want {
		t.Fatalf("post-restart refresh seed = %d, want %d", fresh.Seed, want)
	}
	if fresh.Epoch <= snap.Epoch || fresh.WarmStart {
		t.Fatalf("refresh did not supersede: epoch %d vs %d", fresh.Epoch, snap.Epoch)
	}

	// Corrupt file: cold build + error surfaced, not a startup
	// failure.
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(SnapshotPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var warmErr error
	cfg.OnRefreshError = func(err error) { warmErr = err }
	srv3, _, err := NewService(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmErr == nil {
		t.Fatal("corrupt snapshot not reported")
	}
	if srv3.Snapshot().WarmStart {
		t.Fatal("corrupt snapshot served")
	}
}

// TestRefresherPersists pins that every published refresh lands on
// disk and a failed persist is counted without failing the refresh.
func TestRefresherPersists(t *testing.T) {
	g := persistTestGraph(t)
	dir := t.TempDir()
	store := NewStore()
	r := NewRefresher(store, EngineBuilder(g, BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 1, MaxK: 20}), 0)
	r.PersistTo(dir, nil)
	pub, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(SnapshotPath(dir), g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != pub.Epoch {
		t.Fatalf("persisted epoch %d, want %d", got.Epoch, pub.Epoch)
	}

	// Unwritable dir: refresh still succeeds, persist error counted.
	var reported error
	r2 := NewRefresher(store, EngineBuilder(g, BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 1, MaxK: 20}), 0)
	r2.PersistTo(filepath.Join(dir, "missing-subdir"), func(err error) { reported = err })
	if _, err := r2.Refresh(); err != nil {
		t.Fatalf("refresh must not fail on persist error: %v", err)
	}
	if r2.PersistErrors() != 1 || reported == nil {
		t.Fatalf("persist errors = %d, reported = %v", r2.PersistErrors(), reported)
	}
}

// FuzzDecodeSnapshot: the snapshot loader must never panic or
// over-allocate on corrupt bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 60, MeanOutDeg: 4, DegExponent: 2.1, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	snap, err := Build(g, BuildConfig{Engine: EngineFrogWild, Machines: 2, Seed: 1, MaxK: 10})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:snapHeaderSize])
	f.Add(valid[:len(valid)-5])
	for _, off := range []int{0, 9, 17, 41, snapTableOff + 3, snapHeaderSize + 1, len(valid) - 1} {
		cp := append([]byte{}, valid...)
		cp[off] ^= 0xff
		f.Add(cp)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := DecodeSnapshot(data, nil); err == nil {
			_ = s.TopK(5)
		}
		if s, err := ReadSnapshot(bytes.NewReader(data), nil); err == nil {
			_ = s.TopK(5)
		}
	})
}

// TestNewServiceCreatesSnapshotDir: a configured but not-yet-existing
// snapshot directory is created (nested), so persistence works on the
// very first run; an uncreatable one fails startup loudly.
func TestNewServiceCreatesSnapshotDir(t *testing.T) {
	g := persistTestGraph(t)
	dir := filepath.Join(t.TempDir(), "a", "b")
	cfg := ServiceConfig{
		Build:       BuildConfig{Engine: EngineFrogWild, Machines: 4, Seed: 9, MaxK: 20},
		SnapshotDir: dir,
	}
	if _, _, err := NewService(g, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SnapshotPath(dir)); err != nil {
		t.Fatalf("snapshot not persisted into created dir: %v", err)
	}

	// A path that cannot be a directory is a loud startup error.
	file := filepath.Join(t.TempDir(), "flat")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.SnapshotDir = filepath.Join(file, "sub")
	if _, _, err := NewService(g, cfg); err == nil {
		t.Fatal("uncreatable snapshot dir accepted")
	}
}

// TestSaveLoadSnapshotFile: a snapshot saved at SnapshotPath loads
// against the same graph with its provenance and answers intact, and
// against another graph not at all.
func TestSaveLoadSnapshotFile(t *testing.T) {
	g, err := gen.PowerLaw(gen.TwitterLike(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Build(g, BuildConfig{
		Engine: EngineFrogWild, Machines: 4, Seed: 11, MaxK: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap.Epoch = 5
	path := SnapshotPath(t.TempDir())
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 5 || got.Engine != snap.Engine || got.Seed != snap.Seed || !got.WarmStart {
		t.Fatalf("provenance lost: %+v", got)
	}
	if !reflect.DeepEqual(got.TopK(30), snap.TopK(30)) {
		t.Fatal("served answers diverge after persistence round trip")
	}

	// A different graph must be refused.
	other, err := gen.PowerLaw(gen.TwitterLike(1999, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path, other); err == nil {
		t.Fatal("snapshot accepted against a different graph")
	}
}
