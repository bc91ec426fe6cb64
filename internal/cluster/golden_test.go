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

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*-digests.golden files from the current code")

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
					fmt.Fprintf(&sb, " presence=%s\n", d.sum())
				}
			}
		}
	}
	return sb.String()
}

// inGroup is one machine's share of a vertex's in-edges: the machine
// owning them and their sources.
type inGroup struct {
	machine int
	sources []uint32
}

// inGroups returns v's in-edge sources grouped by owning machine,
// machines ascending, empty groups left out, read from the in-index.
func inGroups(lay *Layout, v graph.VertexID) []inGroup {
	var gs []inGroup
	src, machine := lay.InIndex().In(v)
	for lo := 0; lo < len(src); {
		hi := lo + 1
		for hi < len(src) && machine[hi] == machine[lo] {
			hi++
		}
		gs = append(gs, inGroup{int(machine[lo]), src[lo:hi]})
		lo = hi
	}
	return gs
}

// inIndexDigestLines renders one line per (graph, partitioner,
// machines, seed) of the layout golden: a digest of every vertex's
// in-edge sources, grouped by the machine that owns the edge in
// ascending machine order, each group tagged with its machine.
func inIndexDigestLines(t *testing.T) string {
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
					for v := 0; v < gr.g.NumVertices(); v++ {
						gs := inGroups(lay, graph.VertexID(v))
						d.u64(uint64(len(gs)))
						for _, g := range gs {
							d.u64(uint64(g.machine))
							d.u32s(g.sources)
						}
					}
					fmt.Fprintf(&sb, "%s/%s/m%d/s%d in=%s\n", gr.name, p.Name(), machines, seed, d.sum())
				}
			}
		}
	}
	return sb.String()
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update-golden, and reports the first line that differs.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
			t.Fatalf("%s line %d differs\n got %s\nwant %s", name, i+1, g, wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}

// TestInIndexGolden holds every vertex's machine-grouped in-edge lists
// to the digests the per-machine views' in-CSRs gave: the file was
// generated from those views, at the commit before the in-index
// replaced them, and passed unchanged.
func TestInIndexGolden(t *testing.T) {
	checkGolden(t, "in-index-digests.golden", inIndexDigestLines(t))
}

// TestLayoutGolden holds NewLayout and the four partitioners to the
// digests the hash-map constructor produced (the file was generated at
// the commit before the counting-sort rewrite): placement, master
// choice and presence lists must stay bit-identical, at most 64
// machines and beyond. The file also predates the second rewrite, which
// shuffles the greedy partitioners' edge stream in place; it passed
// unchanged. Its lines lost one field, the digest of the per-machine
// views, when the views were deleted: every other field is as
// generated.
func TestLayoutGolden(t *testing.T) {
	checkGolden(t, "layout-digests.golden", layoutDigestLines(t))
}
