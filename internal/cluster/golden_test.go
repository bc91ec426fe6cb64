package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/layout-digests.golden from the current NewLayout")

// digester hashes a sequence of integer slices, each prefixed by its
// length so that moving an element across a slice boundary shows.
type digester struct {
	buf []byte
}

func (d *digester) u64(x uint64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, x) }

func (d *digester) u16s(xs []uint16) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint16(d.buf, x)
	}
}

func (d *digester) u32s(xs []uint32) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, x)
	}
}

func (d *digester) i64s(xs []int64) {
	d.u64(uint64(len(xs)))
	for _, x := range xs {
		d.u64(uint64(x))
	}
}

func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	d.buf = d.buf[:0]
	return fmt.Sprintf("%x", h[:12])
}

// sparseGraph has isolated vertices, self loops and duplicate edges:
// the corners the power-law generator never produces.
func sparseGraph() *graph.Graph {
	const n = 300
	r := rng.New(77)
	es := make([]graph.Edge, 260)
	for i := range es {
		es[i] = graph.Edge{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n))}
	}
	return graph.FromEdges(n, es)
}

// layoutDigestLines renders one line per (graph, partitioner, machines,
// seed): digests of the partitioner's placement and of every array a
// Layout is made of.
func layoutDigestLines(t *testing.T) string {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw1500", testGraph(t, 1500, 21)},
		{"sparse300", sparseGraph()},
	}
	var sb strings.Builder
	var d digester
	for _, gr := range graphs {
		for _, p := range []Partitioner{Random{}, Oblivious{}, Grid{}, HDRF{}} {
			for _, machines := range []int{1, 4, 16, 70} {
				for _, seed := range []uint64{1, 0xfeedface} {
					lay, err := NewLayout(gr.g, machines, p, seed)
					if err != nil {
						t.Fatalf("%s/%s/%d/%d: %v", gr.name, p.Name(), machines, seed, err)
					}
					fmt.Fprintf(&sb, "%s/%s/m%d/s%d", gr.name, p.Name(), machines, seed)
					d.u16s(p.Place(gr.g, machines, seed))
					fmt.Fprintf(&sb, " placement=%s", d.sum())
					d.u16s(lay.master)
					fmt.Fprintf(&sb, " master=%s", d.sum())
					for v := 0; v < gr.g.NumVertices(); v++ {
						d.u16s(lay.Presences(graph.VertexID(v)))
					}
					fmt.Fprintf(&sb, " presence=%s", d.sum())
					for m := 0; m < machines; m++ {
						view := lay.View(m)
						d.u64(uint64(view.id))
						d.u32s(view.verts)
						d.i64s(view.outOff)
						d.u32s(view.outAdj)
						d.i64s(view.inOff)
						d.u32s(view.inAdj)
						d.u32s(lay.Masters(m))
					}
					fmt.Fprintf(&sb, " views=%s\n", d.sum())
				}
			}
		}
	}
	return sb.String()
}

// TestLayoutGolden holds NewLayout and the four partitioners to the
// digests the hash-map constructor produced (the file was generated at
// the commit before the counting-sort rewrite): master choice, presence
// lists and every machine's local CSR must stay bit-identical, at most
// 64 machines and beyond. The file also predates the second rewrite,
// which builds each machine's CSRs from its own edge run and shuffles
// the greedy partitioners' edge stream in place; it passed unchanged.
func TestLayoutGolden(t *testing.T) {
	got := layoutDigestLines(t)
	path := filepath.Join("testdata", "layout-digests.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			g := "<missing>"
			if i < len(gl) {
				g = gl[i]
			}
			t.Fatalf("layout digest line %d differs\n got %s\nwant %s", i+1, g, wl[i])
		}
	}
	t.Fatalf("layout digests: %d lines, golden has %d", len(gl), len(wl))
}
