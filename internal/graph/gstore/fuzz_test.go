package gstore

import (
	"bytes"
	"testing"

	"repro/internal/graph"
)

// FuzzDecode throws arbitrary bytes at every loader entry point. The
// contract under test: corrupt, truncated, or crafted input returns an
// error — it never panics and never triggers an allocation
// proportional to a hostile header's claims rather than to the input.
// The seed corpus (testdata/fuzz/FuzzDecode plus the f.Add entries
// below) covers valid files, truncations, header tampering and
// section bit-flips.
func FuzzDecode(f *testing.F) {
	small := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	var buf bytes.Buffer
	if err := Write(&buf, small); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	for _, cut := range []int{4, headerSize - 1, headerSize, headerSize + 9, len(valid) - 3} {
		f.Add(append([]byte{}, valid[:cut]...))
	}
	for _, off := range []int{0, 8, 12, 17, 25, tableOffset + 1, tableOffset + 9, headerSize + 2, len(valid) - 1} {
		cp := append([]byte{}, valid...)
		cp[off] ^= 0xff
		f.Add(cp)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode requires nothing of data's alignment (it copies
		// misaligned sections), so feed the raw fuzz buffer directly.
		for _, opts := range []OpenOptions{{}, {NoVerify: true}} {
			if g, err := Decode(data, nil, opts); err == nil {
				// Whatever decodes must be safely validated and
				// traversed.
				_ = g.Validate()
				r := g.NewAdjReader()
				for v := 0; v < g.NumVertices(); v++ {
					_ = r.OutNeighbors(graph.VertexID(v))
					_ = r.InNeighbors(graph.VertexID(v))
				}
			}
		}
		// The stream reader must uphold the same contract.
		if g, err := Read(bytes.NewReader(data), OpenOptions{}); err == nil {
			_ = g.NumVertices()
		}
	})
}
