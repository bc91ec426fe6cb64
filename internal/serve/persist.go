package serve

// Snapshot persistence: the serving layer's answer to restart cost.
// Every published snapshot can be written to disk in a checksummed
// binary format, and prserve can warm-start from the last persisted
// file: the ranks and the precomputed top index load in milliseconds —
// independent of how long the estimate took to compute — and serve
// queries, with the persisted epoch's provenance, while the first
// fresh refresh runs in the background.
//
// The byte-level discipline (header prelude, checksummed section
// table, atomic save, bounded stream read) is the shared
// internal/secfile codec; this file is the FWSNAP01 schema over it:
//
//	offset  size  field
//	0       8     magic "FWSNAP01"
//	8       4     format version (1)
//	12      1     array byte order: 0 little, 1 big
//	13      3     reserved (zero)
//	16      8     n, rank vector length (= graph vertices)
//	24      8     graph edge count (warm-start compatibility check)
//	32      8     MaxK
//	40      8     top index length (= min(MaxK, n))
//	48      8     epoch
//	56      8     seed
//	64      8     BuiltAt, unix nanoseconds
//	72      8     BuildSeconds
//	80      16    engine name, zero-padded
//	96      48    graph stats: minOutDeg, maxOutDeg, maxInDeg (i64),
//	              meanDeg, giniOut (f64), dangling (i64)
//	144     72    section table: 3 × (offset u64, length u64, crc64 u64)
//	              in order ranks (n × f64), top vertices (topLen × u32),
//	              top scores (topLen × f64)
//	216     40    reserved (zero)
//	256     ...   sections, 8-byte aligned

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/secfile"
	"repro/internal/topk"
)

const (
	snapMagic      = "FWSNAP01"
	snapVersion    = 1
	snapHeaderSize = 256
	snapTableOff   = 144
	snapSections   = 3

	// maxSnapVertices bounds a header's claimed rank-vector length
	// before any allocation happens.
	maxSnapVertices = 1 << 31
)

// ErrSnapshotFormat wraps every corruption the snapshot loader
// detects; ErrSnapshotMismatch flags a valid snapshot that belongs to
// a different graph than the one being served. Failures also wrap the
// corresponding internal/secfile identity.
var (
	ErrSnapshotFormat   = errors.New("serve: not a snapshot file")
	ErrSnapshotChecksum = errors.New("serve: snapshot section checksum mismatch")
	ErrSnapshotMismatch = errors.New("serve: snapshot does not match the served graph")
)

// snapSchema plugs the FWSNAP01 layout into the shared codec; a
// foreign byte order is a plain format error for snapshots (the file
// is a cache — the server just rebuilds).
var snapSchema = &secfile.Schema{
	Magic:        snapMagic,
	Version:      snapVersion,
	HeaderSize:   snapHeaderSize,
	TableOff:     snapTableOff,
	NumSections:  snapSections,
	SectionSizes: snapSectionSizes,
	ErrFormat:    ErrSnapshotFormat,
	ErrChecksum:  ErrSnapshotChecksum,
	ErrEndian:    ErrSnapshotFormat,
}

func init() {
	secfile.Register(secfile.Info{
		Name:         "serve snapshot",
		Schema:       snapSchema,
		SectionNames: []string{"ranks", "topVertices", "topScores"},
		Fields: func(hdr []byte) []secfile.Field {
			return []secfile.Field{
				{Name: "vertices", Value: fmt.Sprint(binary.LittleEndian.Uint64(hdr[16:24]))},
				{Name: "edges", Value: fmt.Sprint(binary.LittleEndian.Uint64(hdr[24:32]))},
				{Name: "maxK", Value: fmt.Sprint(binary.LittleEndian.Uint64(hdr[32:40]))},
				{Name: "topLen", Value: fmt.Sprint(binary.LittleEndian.Uint64(hdr[40:48]))},
				{Name: "epoch", Value: fmt.Sprint(binary.LittleEndian.Uint64(hdr[48:56]))},
				{Name: "seed", Value: fmt.Sprint(binary.LittleEndian.Uint64(hdr[56:64]))},
				{Name: "engine", Value: string(engineName(hdr))},
				{Name: "builtAt", Value: time.Unix(0, int64(binary.LittleEndian.Uint64(hdr[64:72]))).UTC().Format(time.RFC3339)},
				{Name: "buildSeconds", Value: fmt.Sprintf("%.3f", math.Float64frombits(binary.LittleEndian.Uint64(hdr[72:80])))},
			}
		},
	})
}

// engineName extracts the zero-padded engine name field.
func engineName(hdr []byte) []byte {
	engine := hdr[80:96]
	end := 0
	for end < len(engine) && engine[end] != 0 {
		end++
	}
	return engine[:end]
}

// snapSectionSizes derives the three sections' byte lengths from the
// header's rank-vector and top-index lengths, rejecting implausible or
// internally inconsistent claims before anything is allocated.
func snapSectionSizes(hdr []byte) ([]uint64, error) {
	n := binary.LittleEndian.Uint64(hdr[16:24])
	maxK := binary.LittleEndian.Uint64(hdr[32:40])
	topLen := binary.LittleEndian.Uint64(hdr[40:48])
	if n == 0 || n > maxSnapVertices {
		return nil, fmt.Errorf("implausible n=%d", n)
	}
	if topLen > n || maxK == 0 || maxK > maxSnapVertices {
		return nil, fmt.Errorf("implausible top index (maxk=%d len=%d)", maxK, topLen)
	}
	if topLen != min(maxK, n) {
		return nil, fmt.Errorf("top length %d, want min(maxk=%d, n=%d)", topLen, maxK, n)
	}
	return []uint64{n * 8, topLen * 4, topLen * 8}, nil
}

// SnapshotPath returns the file inside dir where the serving layer
// persists (and warm-starts from) the latest snapshot.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.fws") }

// WriteSnapshot serializes s (ranks, top index, provenance, graph
// stats) to w.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if s == nil || len(s.Ranks) == 0 {
		return errors.New("serve: nothing to persist")
	}
	if len(s.Engine) > 16 {
		return fmt.Errorf("serve: engine name %q too long to persist", s.Engine)
	}
	n, topLen := uint64(len(s.Ranks)), uint64(len(s.Top))
	topV := make([]uint32, topLen)
	topS := make([]float64, topLen)
	for i, e := range s.Top {
		topV[i], topS[i] = e.Vertex, e.Score
	}

	hdr := snapSchema.NewHeader()
	binary.LittleEndian.PutUint64(hdr[16:24], n)
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(s.Stats.NumEdges))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(s.MaxK))
	binary.LittleEndian.PutUint64(hdr[40:48], topLen)
	binary.LittleEndian.PutUint64(hdr[48:56], s.Epoch)
	binary.LittleEndian.PutUint64(hdr[56:64], s.Seed)
	binary.LittleEndian.PutUint64(hdr[64:72], uint64(s.BuiltAt.UnixNano()))
	binary.LittleEndian.PutUint64(hdr[72:80], math.Float64bits(s.BuildSeconds))
	copy(hdr[80:96], s.Engine)
	st := s.Stats
	binary.LittleEndian.PutUint64(hdr[96:104], uint64(st.MinOutDeg))
	binary.LittleEndian.PutUint64(hdr[104:112], uint64(st.MaxOutDeg))
	binary.LittleEndian.PutUint64(hdr[112:120], uint64(st.MaxInDeg))
	binary.LittleEndian.PutUint64(hdr[120:128], math.Float64bits(st.MeanDeg))
	binary.LittleEndian.PutUint64(hdr[128:136], math.Float64bits(st.GiniOut))
	binary.LittleEndian.PutUint64(hdr[136:144], uint64(st.Dangling))
	return snapSchema.Write(w, hdr, [][]byte{
		secfile.Bytes(s.Ranks), secfile.Bytes(topV), secfile.Bytes(topS),
	})
}

// SaveSnapshot persists s to path atomically (temp file + fsync +
// rename in the same directory), so a crash mid-write never destroys
// the previous snapshot and a concurrent warm start never sees a torn
// file.
func SaveSnapshot(path string, s *Snapshot) error {
	return secfile.SaveAtomic(path, func(w io.Writer) error { return WriteSnapshot(w, s) })
}

// snapshotFromFile rebuilds a Snapshot from a parsed, checksum-verified
// section file, attaching it to g (the graph it will be served
// against). Beyond the codec's structural checks it verifies the
// graph-compatibility fields and the top index's internal consistency
// (every entry in range, scores finite and matching the rank vector,
// sorted by the topk total order), so a loaded snapshot upholds exactly the
// invariants a freshly built one does.
func snapshotFromFile(f *secfile.File, g *graph.Graph) (*Snapshot, error) {
	hdr := f.Header()
	n := binary.LittleEndian.Uint64(hdr[16:24])
	edges := binary.LittleEndian.Uint64(hdr[24:32])
	maxK := binary.LittleEndian.Uint64(hdr[32:40])
	topLen := binary.LittleEndian.Uint64(hdr[40:48])
	if g != nil && (int(n) != g.NumVertices() || int64(edges) != g.NumEdges()) {
		return nil, fmt.Errorf("%w: snapshot for n=%d m=%d, graph has n=%d m=%d",
			ErrSnapshotMismatch, n, edges, g.NumVertices(), g.NumEdges())
	}

	// Sections were written in native byte order (the codec checked the
	// header's endian tag), so decode them with native-order copies —
	// not binary.LittleEndian, which would shred them on a big-endian
	// host that wrote them itself.
	ranks := make([]float64, n)
	copy(secfile.Bytes(ranks), f.Section(0))
	topV := make([]uint32, topLen)
	copy(secfile.Bytes(topV), f.Section(1))
	topS := make([]float64, topLen)
	copy(secfile.Bytes(topS), f.Section(2))
	top := make([]topk.Entry, topLen)
	for i := range top {
		v, score := topV[i], topS[i]
		if uint64(v) >= n {
			return nil, fmt.Errorf("%w: top entry %d vertex %d out of range", ErrSnapshotFormat, i, v)
		}
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return nil, fmt.Errorf("%w: top entry %d score %v is not finite", ErrSnapshotFormat, i, score)
		}
		if ranks[v] != score {
			return nil, fmt.Errorf("%w: top entry %d score disagrees with rank vector", ErrSnapshotFormat, i)
		}
		if i > 0 {
			prev := top[i-1]
			if score > prev.Score || (score == prev.Score && v <= prev.Vertex) {
				return nil, fmt.Errorf("%w: top index not in topk order at entry %d", ErrSnapshotFormat, i)
			}
		}
		top[i] = topk.Entry{Vertex: v, Score: score}
	}

	s := &Snapshot{
		Epoch:        binary.LittleEndian.Uint64(hdr[48:56]),
		Engine:       Engine(engineName(hdr)),
		Seed:         binary.LittleEndian.Uint64(hdr[56:64]),
		BuiltAt:      time.Unix(0, int64(binary.LittleEndian.Uint64(hdr[64:72]))),
		BuildSeconds: math.Float64frombits(binary.LittleEndian.Uint64(hdr[72:80])),
		Graph:        g,
		Stats: graph.Stats{
			NumVertices: int(n),
			NumEdges:    int64(edges),
			MinOutDeg:   int(int64(binary.LittleEndian.Uint64(hdr[96:104]))),
			MaxOutDeg:   int(int64(binary.LittleEndian.Uint64(hdr[104:112]))),
			MaxInDeg:    int(int64(binary.LittleEndian.Uint64(hdr[112:120]))),
			MeanDeg:     math.Float64frombits(binary.LittleEndian.Uint64(hdr[120:128])),
			GiniOut:     math.Float64frombits(binary.LittleEndian.Uint64(hdr[128:136])),
			Dangling:    int(int64(binary.LittleEndian.Uint64(hdr[136:144]))),
		},
		Ranks:     ranks,
		Top:       top,
		MaxK:      int(maxK),
		WarmStart: true,
	}
	return s, nil
}

// DecodeSnapshot rebuilds a Snapshot from data, attaching it to g (the
// graph it will be served against). It verifies the header, the
// per-section checksums, the graph-compatibility fields, and the top
// index's internal consistency. The returned snapshot has WarmStart
// set.
func DecodeSnapshot(data []byte, g *graph.Graph) (*Snapshot, error) {
	f, err := snapSchema.Decode(data, nil, secfile.OpenOptions{})
	if err != nil {
		return nil, err
	}
	return snapshotFromFile(f, g)
}

// ReadSnapshot decodes a snapshot stream. The header is read first so
// the exact remaining size is known; the buffer grows geometrically
// toward it, so a hostile header fails at the stream's real end
// instead of forcing one giant allocation.
func ReadSnapshot(r io.Reader, g *graph.Graph) (*Snapshot, error) {
	f, err := snapSchema.Read(r, secfile.OpenOptions{})
	if err != nil {
		return nil, err
	}
	return snapshotFromFile(f, g)
}

// LoadSnapshot reads a persisted snapshot and attaches it to g. The
// returned snapshot has WarmStart set, which tells the Refresher to
// schedule a fresh build even though a snapshot is already serving.
func LoadSnapshot(path string, g *graph.Graph) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f, g)
}
