// Big-endian decode-path tests for the two production formats, driven
// through the shared codec's byte-order hook: SwapHostEndian makes the
// codec stamp and accept the foreign tag, so a little-endian machine
// can both produce and consume synthetic big-endian-tagged files. This
// is the only way the tag-mismatch paths get exercised on the hardware
// CI actually has. Lives in secfile's external test package so it can
// import the formats without a cycle.
package secfile_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/gstore"
	"repro/internal/secfile"
	"repro/internal/serve"
	"repro/internal/topk"
)

// writeForeignGraph renders a graph file carrying the non-native
// byte-order tag.
func writeForeignGraph(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	restore := secfile.SwapHostEndian()
	defer restore()
	var buf bytes.Buffer
	if err := gstore.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGstoreByteOrderTag(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 5, Dst: 0}})
	defer g.Close()
	data := writeForeignGraph(t, g)
	if data[12] != secfile.ForeignEndianTag() {
		t.Fatalf("tag byte %d, want the foreign tag %d", data[12], secfile.ForeignEndianTag())
	}

	// A machine of the writer's byte order (simulated by keeping the
	// swap active) decodes the file fully.
	restore := secfile.SwapHostEndian()
	g2, err := gstore.Decode(bytes.Clone(data), nil, gstore.OpenOptions{})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("foreign-order round trip: %d/%d, want %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}

	// This machine rejects it with the format's own endian identity and
	// the codec's, on both decode paths.
	if _, err := gstore.Decode(bytes.Clone(data), nil, gstore.OpenOptions{}); !errors.Is(err, gstore.ErrEndian) || !errors.Is(err, secfile.ErrEndian) {
		t.Fatalf("Decode: %v, want gstore.ErrEndian and secfile.ErrEndian", err)
	}
	if _, err := gstore.Read(bytes.NewReader(data), gstore.OpenOptions{}); !errors.Is(err, gstore.ErrEndian) {
		t.Fatalf("Read: %v, want gstore.ErrEndian", err)
	}
}

func TestSnapshotByteOrderTag(t *testing.T) {
	g := graph.FromEdges(8, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	defer g.Close()
	ranks := make([]float64, 8)
	for i := range ranks {
		ranks[i] = 1 / float64(i+2)
	}
	s := &serve.Snapshot{
		Ranks:   ranks,
		Top:     topk.Top(ranks, 4),
		MaxK:    4,
		Epoch:   2,
		Seed:    9,
		Engine:  serve.EngineExact,
		BuiltAt: time.Unix(1700000000, 0),
		Stats:   graph.Stats{NumVertices: 8, NumEdges: 2},
	}

	restore := secfile.SwapHostEndian()
	var buf bytes.Buffer
	err := serve.WriteSnapshot(&buf, s)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if data[12] != secfile.ForeignEndianTag() {
		t.Fatalf("tag byte %d, want the foreign tag %d", data[12], secfile.ForeignEndianTag())
	}

	restore = secfile.SwapHostEndian()
	s2, err := serve.DecodeSnapshot(bytes.Clone(data), g)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch != s.Epoch || len(s2.Ranks) != len(s.Ranks) || s2.Engine != s.Engine {
		t.Fatalf("foreign-order round trip: epoch %d engine %s n %d", s2.Epoch, s2.Engine, len(s2.Ranks))
	}

	// The snapshot format folds foreign byte order into its format
	// error (a snapshot is a cache: reject and rebuild), still carrying
	// the codec's endian identity.
	if _, err := serve.DecodeSnapshot(bytes.Clone(data), g); !errors.Is(err, serve.ErrSnapshotFormat) || !errors.Is(err, secfile.ErrEndian) {
		t.Fatalf("DecodeSnapshot: %v, want serve.ErrSnapshotFormat and secfile.ErrEndian", err)
	}
}
