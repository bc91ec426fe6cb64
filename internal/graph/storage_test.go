package graph

import (
	"errors"
	"reflect"
	"testing"
)

func TestFromCSRRoundTrip(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	c := g.CSRView()
	g2, err := FromCSR(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.CSRView(), g2.CSRView()) {
		t.Fatal("FromCSR(CSRView()) is not the identity")
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCSRRejectsBadOffsets(t *testing.T) {
	base := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}}).CSRView()
	cases := []struct {
		name   string
		mutate func(c *CSR)
	}{
		{"negative n", func(c *CSR) { c.NumVertices = -1 }},
		{"short outOff", func(c *CSR) { c.OutOff = c.OutOff[:2] }},
		{"short inOff", func(c *CSR) { c.InOff = c.InOff[:1] }},
		{"nonzero start", func(c *CSR) { c.OutOff = append([]int64(nil), c.OutOff...); c.OutOff[0] = 1 }},
		{"non-monotone", func(c *CSR) { c.OutOff = append([]int64(nil), c.OutOff...); c.OutOff[1] = 99 }},
		{"total mismatch", func(c *CSR) { c.OutAdj = c.OutAdj[:1] }},
		{"in total mismatch", func(c *CSR) { c.InAdj = append(c.InAdj, 0); c.OutAdj = append(c.OutAdj, 0) }},
		{"count mismatch", func(c *CSR) {
			c.InAdj = append([]VertexID(nil), c.InAdj...)
			c.InAdj = append(c.InAdj, 0)
			c.InOff = append([]int64(nil), c.InOff...)
			c.InOff[3] = 4
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base
			tc.mutate(&c)
			if _, err := FromCSR(c, nil); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// closeCounter records Close calls, standing in for an munmap.
type closeCounter struct{ n int }

func (c *closeCounter) Close() error { c.n++; return nil }

func TestCloseReleasesBackingOnce(t *testing.T) {
	c := FromEdges(2, []Edge{{0, 1}, {1, 0}}).CSRView()
	cc := &closeCounter{}
	g, err := FromCSR(c, cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if cc.n != 1 {
		t.Fatalf("backing closed %d times, want 1", cc.n)
	}
	// Heap-backed graphs: Close is a no-op.
	if err := FromEdges(2, []Edge{{0, 1}, {1, 0}}).Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFromCSRErrorReleasesBacking(t *testing.T) {
	cc := &closeCounter{}
	if _, err := FromCSR(CSR{NumVertices: -1}, cc); err == nil {
		t.Fatal("want error")
	}
	if cc.n != 1 {
		t.Fatalf("backing closed %d times on constructor failure, want 1", cc.n)
	}
}

func TestFromCSRErrClose(t *testing.T) {
	c := FromEdges(2, []Edge{{0, 1}, {1, 0}}).CSRView()
	wantErr := errors.New("munmap failed")
	g, err := FromCSR(c, closeFunc(func() error { return wantErr }))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
}

type closeFunc func() error

func (f closeFunc) Close() error { return f() }
