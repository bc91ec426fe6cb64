package secfile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"testing"

	"repro/internal/secfile"
)

var ecma = crc64.MakeTable(crc64.ECMA)

// eachPath runs f on the folding kernel (skipped where the CPU has
// none) and on hash/crc64's table loop alone, so a machine with the
// kernel covers both.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Run("kernel", func(t *testing.T) {
		if !secfile.HasFoldingKernel() {
			t.Skip("no PCLMULQDQ folding kernel on this CPU or GOARCH")
		}
		f(t)
	})
	t.Run("table", func(t *testing.T) {
		defer secfile.UseTableCRC()()
		f(t)
	})
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// crcInits are the initial values every length is checked from: zero,
// one, all ones, and one random value.
var crcInits = []uint64{0, 1, ^uint64(0), 0x9E3779B97F4A7C15}

func TestChecksumMatchesCRC64(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		buf := randomBytes(2048+16, 1)
		for n := 0; n <= 2048; n++ {
			for off := 0; off < 16; off++ {
				p := buf[off : off+n]
				if got, want := secfile.Checksum(p), crc64.Checksum(p, ecma); got != want {
					t.Fatalf("Checksum(len %d at offset %d) = %#x, want %#x", n, off, got, want)
				}
				for _, crc := range crcInits {
					if got, want := secfile.Update(crc, p), crc64.Update(crc, ecma, p); got != want {
						t.Fatalf("Update(%#x, len %d at offset %d) = %#x, want %#x", crc, n, off, got, want)
					}
				}
			}
		}
	})
}

func TestChecksumLargeBuffers(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		buf := randomBytes(8<<20+64, 2)
		for _, n := range []int{3 << 20, 5<<20 + 13, 8<<20 + 47} {
			for _, off := range []int{0, 7} {
				p := buf[off : off+n]
				for _, crc := range crcInits {
					if got, want := secfile.Update(crc, p), crc64.Update(crc, ecma, p); got != want {
						t.Fatalf("Update(%#x, len %d at offset %d) = %#x, want %#x", crc, n, off, got, want)
					}
				}
			}
		}
	})
}

// TestChecksumStreamingEqualsOneShot feeds a section to Update in
// VerifyChunk pieces, as VerifySectionsReaderAt reads it.
func TestChecksumStreamingEqualsOneShot(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := randomBytes(5*secfile.VerifyChunk+1021, 3)
		var crc uint64
		for rest := p; len(rest) > 0; {
			n := min(len(rest), secfile.VerifyChunk)
			crc = secfile.Update(crc, rest[:n])
			rest = rest[n:]
		}
		if want := secfile.Checksum(p); crc != want {
			t.Fatalf("streamed %#x, one-shot %#x", crc, want)
		}
		if want := crc64.Checksum(p, ecma); crc != want {
			t.Fatalf("streamed %#x, hash/crc64 %#x", crc, want)
		}
	})
}

// TestChecksumCheckValue pins the catalogue's check value of
// CRC-64/XZ (a.k.a. CRC-64/GO-ECMA).
func TestChecksumCheckValue(t *testing.T) {
	if got := secfile.Checksum([]byte("123456789")); got != 0x995DC9BBDF1939FA {
		t.Fatalf("check value %#x, want 0x995DC9BBDF1939FA", got)
	}
}

func TestChecksumAllocs(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		p := randomBytes(1<<20+5, 4)
		if allocs := testing.AllocsPerRun(10, func() { secfile.Checksum(p) }); allocs != 0 {
			t.Fatalf("Checksum allocates %v times", allocs)
		}
	})
}

// TestFoldKeys derives the kernel's multipliers a second way, from
// hash/crc64 itself. A message whose only set bit is the first one is
// x^(8n−1) in n bytes, and its bare CRC register (zero in, no final
// XOR) is that times x⁶⁴ mod P, already reflected: x^(8n+63) mod P.
func TestFoldKeys(t *testing.T) {
	xPow := func(k int) uint64 {
		if (k-63)%8 != 0 || k < 63+8 {
			t.Fatalf("x^%d is not reachable by whole bytes", k)
		}
		msg := make([]byte, (k-63)/8)
		msg[0] = 1
		return ^crc64.Update(^uint64(0), ecma, msg)
	}
	want := [4]uint64{xPow(512 + 63), xPow(512 - 1), xPow(128 + 63), xPow(128 - 1)}
	if got := secfile.FoldKeys(); got != want {
		t.Fatalf("fold keys %#x, want %#x", got, want)
	}
}

// TestChecksumCatchesEveryBitFlip flips each bit of a section long
// enough for the kernel, one at a time: every flip must fail both the
// in-memory and the streaming verification.
func TestChecksumCatchesEveryBitFlip(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		s := &secfile.Schema{
			Magic: "SFCRC001", Version: 1, HeaderSize: 48, TableOff: 24, NumSections: 1,
			SectionSizes: func(hdr []byte) ([]uint64, error) {
				return []uint64{binary.LittleEndian.Uint64(hdr[16:24])}, nil
			},
		}
		payload := randomBytes(3*secfile.FoldMin+9, 5)
		hdr := s.NewHeader()
		binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(payload)))
		var buf bytes.Buffer
		if err := s.Write(&buf, hdr, [][]byte{payload}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		secs, err := s.Parse(data, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.VerifySections(data, secs); err != nil {
			t.Fatalf("intact file: %v", err)
		}
		for bit := 0; bit < 8*len(payload); bit++ {
			at := int(secs[0].Off) + bit/8
			data[at] ^= 1 << (bit % 8)
			if err := s.VerifySections(data, secs); !errors.Is(err, secfile.ErrChecksum) {
				t.Fatalf("bit %d flipped: VerifySections err = %v, want ErrChecksum", bit, err)
			}
			if err := s.VerifySectionsReaderAt(bytes.NewReader(data), secs); !errors.Is(err, secfile.ErrChecksum) {
				t.Fatalf("bit %d flipped: VerifySectionsReaderAt err = %v, want ErrChecksum", bit, err)
			}
			data[at] ^= 1 << (bit % 8)
		}
	})
}

// FuzzChecksum checks the section checksum against hash/crc64 for
// arbitrary bytes and initial values, on whichever path this machine
// takes.
func FuzzChecksum(f *testing.F) {
	f.Add(uint64(0), []byte("123456789"))
	f.Add(^uint64(0), randomBytes(secfile.FoldMin, 6))
	f.Add(uint64(0x9E3779B97F4A7C15), randomBytes(1000, 7))
	f.Fuzz(func(t *testing.T, crc uint64, p []byte) {
		if got, want := secfile.Update(crc, p), crc64.Update(crc, ecma, p); got != want {
			t.Fatalf("Update(%#x, %d bytes) = %#x, want %#x", crc, len(p), got, want)
		}
	})
}

var sink uint64

// BenchmarkChecksum checksums a 12 MiB buffer, the size of the
// benchmark's graph file, on each path.
func BenchmarkChecksum(b *testing.B) {
	p := randomBytes(12<<20, 8)
	run := func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for range b.N {
			sink = secfile.Checksum(p)
		}
	}
	b.Run("kernel", func(b *testing.B) {
		if !secfile.HasFoldingKernel() {
			b.Skip("no PCLMULQDQ folding kernel on this CPU or GOARCH")
		}
		run(b)
	})
	b.Run("table", func(b *testing.B) {
		defer secfile.UseTableCRC()()
		run(b)
	})
}
