package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/draw-digests.golden from the current samplers")

// drawDigestLines renders one line per sampler case: the SHA-256 of a
// few thousand draws from a fixed stream, followed by the stream's next
// Uint64, so a sampler that consumes one more or one less value than
// before changes the digest even when its draws do not.
func drawDigestLines() string {
	type drawCase struct {
		name string
		draw func(r *Stream, put func(uint64))
	}
	var cases []drawCase
	for _, n := range []int{1, 7, 100, 5000, 1 << 20} {
		reps := max(2, 200_000/n)
		for _, p := range []float64{1e-6, 0.01, 0.15, 0.5, 0.7, 0.85, 0.999} {
			cases = append(cases, drawCase{fmt.Sprintf("binomial/n%d/p%v", n, p), func(r *Stream, put func(uint64)) {
				for i := 0; i < reps; i++ {
					put(uint64(r.Binomial(n, p)))
				}
			}})
		}
	}
	for _, p := range []float64{1e-9, 0.01, 0.15, 0.5, 0.85, 1} {
		cases = append(cases, drawCase{fmt.Sprintf("geometric/p%v", p), func(r *Stream, put func(uint64)) {
			for i := 0; i < 2000; i++ {
				put(uint64(r.Geometric(p)))
			}
		}})
	}
	for _, total := range []int{0, 1, 37, 3333, 1 << 18} {
		for _, k := range []int{1, 2, 16, 1000} {
			cases = append(cases, drawCase{fmt.Sprintf("multinomial/total%d/k%d", total, k), func(r *Stream, put func(uint64)) {
				out := make([]int64, k)
				for i := 0; i < 4; i++ {
					r.MultinomialSplit(total, out)
					for _, x := range out {
						put(uint64(x))
					}
				}
			}})
		}
	}
	for _, p := range []float64{-1, 0, 1e-3, 0.1, 0.7, 1, 2} {
		cases = append(cases, drawCase{fmt.Sprintf("bernoulli/p%v", p), func(r *Stream, put func(uint64)) {
			for i := 0; i < 2000; i++ {
				if r.Bernoulli(p) {
					put(1)
				} else {
					put(0)
				}
			}
		}})
	}
	var sb strings.Builder
	var b []byte
	put := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	for i, c := range cases {
		b = b[:0]
		r := Derive(0xD1CE, uint64(i))
		c.draw(r, put)
		put(r.Uint64())
		h := sha256.Sum256(b)
		fmt.Fprintf(&sb, "%s draws=%x\n", c.name, h[:16])
	}
	return sb.String()
}

// TestDrawDigests holds the draw sequences of Binomial (p above ½ and
// large n included), Geometric, MultinomialSplit and Bernoulli to
// digests generated before Binomial computed its log1p once per call
// instead of once per gap: every engine run's randomness is made of
// these draws.
func TestDrawDigests(t *testing.T) {
	got := drawDigestLines()
	path := filepath.Join("testdata", "draw-digests.golden")
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
			t.Fatalf("draw digest line %d differs\n got %s\nwant %s", i+1, g, wl[i])
		}
	}
	t.Fatalf("draw digests: %d lines, golden has %d", len(gl), len(wl))
}
