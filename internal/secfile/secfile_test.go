package secfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// testSchema is a minimal two-section format exercising every codec
// path: section byte lengths live as u64 scalars at offsets 16 and 24,
// the table at 32, sections after the 96-byte header.
func testSchema() *Schema {
	return &Schema{
		Magic:       "SFTEST01",
		Version:     1,
		HeaderSize:  96,
		TableOff:    32,
		NumSections: 2,
		SectionSizes: func(hdr []byte) ([]uint64, error) {
			a := binary.LittleEndian.Uint64(hdr[16:24])
			b := binary.LittleEndian.Uint64(hdr[24:32])
			if a > 1<<20 || b > 1<<20 {
				return nil, fmt.Errorf("implausible section sizes %d, %d", a, b)
			}
			return []uint64{a, b}, nil
		},
	}
}

// encode writes a testSchema file holding the two payloads.
func encode(t *testing.T, s *Schema, a, b []byte) []byte {
	t.Helper()
	hdr := s.NewHeader()
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(a)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(b)))
	var buf bytes.Buffer
	if err := s.Write(&buf, hdr, [][]byte{a, b}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	s := testSchema()
	a := []byte("first section payload")       // 21 bytes: exercises padding
	b := bytes.Repeat([]byte{0xab, 0xcd}, 100) // 200 bytes
	data := encode(t, s, a, b)

	if want := s.FileSize([]uint64{uint64(len(a)), uint64(len(b))}); uint64(len(data)) != want {
		t.Fatalf("encoded %d bytes, FileSize says %d", len(data), want)
	}
	f, err := s.Decode(data, nil, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !bytes.Equal(f.Section(0), a) || !bytes.Equal(f.Section(1), b) {
		t.Fatal("sections do not round-trip")
	}
	if got := f.Header(); len(got) != s.HeaderSize || !s.IsMagic(got) {
		t.Fatalf("bad header: %d bytes", len(got))
	}
	// The layout is canonical: second section starts 8-aligned.
	if f.Secs[1].Off%8 != 0 || f.Secs[1].Off < f.Secs[0].Off+f.Secs[0].Len {
		t.Fatalf("section 1 at %d, section 0 is %d+%d", f.Secs[1].Off, f.Secs[0].Off, f.Secs[0].Len)
	}
	// Trailing padding brings the file to an aligned end.
	if len(data)%8 != 0 {
		t.Fatalf("file end %d not aligned", len(data))
	}
}

func TestEmptySections(t *testing.T) {
	s := testSchema()
	data := encode(t, s, nil, nil)
	f, err := s.Decode(data, nil, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Section(0)) != 0 || len(f.Section(1)) != 0 {
		t.Fatal("empty sections round-trip non-empty")
	}
	if len(data) != s.HeaderSize {
		t.Fatalf("empty file is %d bytes, want the %d-byte header", len(data), s.HeaderSize)
	}
}

func TestParseRejects(t *testing.T) {
	s := testSchema()
	good := encode(t, s, []byte("aaaa"), []byte("bbbbbbbb"))

	mutate := func(fn func(d []byte)) []byte {
		d := bytes.Clone(good)
		fn(d)
		return d
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"short header", good[:s.HeaderSize-1], ErrFormat},
		{"bad magic", mutate(func(d []byte) { d[0] = 'X' }), ErrFormat},
		{"bad version", mutate(func(d []byte) { binary.LittleEndian.PutUint32(d[8:12], 99) }), ErrFormat},
		{"foreign endian", mutate(func(d []byte) { d[12] = ForeignEndianTag() }), ErrEndian},
		{"implausible size", mutate(func(d []byte) { binary.LittleEndian.PutUint64(d[16:24], 1<<40) }), ErrFormat},
		{"crafted table offset", mutate(func(d []byte) { binary.LittleEndian.PutUint64(d[s.TableOff:], 0) }), ErrFormat},
		{"crafted table length", mutate(func(d []byte) { binary.LittleEndian.PutUint64(d[s.TableOff+8:], 1<<19) }), ErrFormat},
		{"truncated payload", good[:len(good)-8], ErrFormat},
		{"corrupt payload", mutate(func(d []byte) { d[len(d)-1] ^= 0xff }), ErrChecksum},
	}
	for _, tc := range cases {
		if _, err := s.Decode(tc.data, nil, OpenOptions{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// NoVerify admits the corrupt payload (geometry is still pinned).
	corrupt := mutate(func(d []byte) { d[len(d)-1] ^= 0xff })
	if _, err := s.Decode(corrupt, nil, OpenOptions{NoVerify: true}); err != nil {
		t.Fatalf("NoVerify rejected corrupt payload: %v", err)
	}
}

func TestSchemaErrorIdentities(t *testing.T) {
	s := testSchema()
	s.ErrFormat = errors.New("test: format")
	s.ErrChecksum = errors.New("test: checksum")
	s.ErrEndian = errors.New("test: endian")
	good := encode(t, s, []byte("aaaa"), nil)

	bad := bytes.Clone(good)
	bad[0] = 'X'
	if _, err := s.Decode(bad, nil, OpenOptions{}); !errors.Is(err, s.ErrFormat) || !errors.Is(err, ErrFormat) {
		t.Errorf("format error missing an identity: %v", err)
	}
	bad = bytes.Clone(good)
	bad[12] = ForeignEndianTag()
	if _, err := s.Decode(bad, nil, OpenOptions{}); !errors.Is(err, s.ErrEndian) || !errors.Is(err, ErrEndian) {
		t.Errorf("endian error missing an identity: %v", err)
	}
	bad = bytes.Clone(good)
	bad[s.HeaderSize] ^= 0xff
	if _, err := s.Decode(bad, nil, OpenOptions{}); !errors.Is(err, s.ErrChecksum) || !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum error missing an identity: %v", err)
	}

	// A schema with no ErrEndian of its own falls back to its ErrFormat.
	s2 := testSchema()
	s2.ErrFormat = errors.New("test: format only")
	if _, err := s2.Decode(bytes.Clone(bad), nil, OpenOptions{}); err == nil {
		t.Fatal("corrupt file accepted")
	}
	foreign := encode(t, s2, nil, nil)
	foreign[12] = ForeignEndianTag()
	if _, err := s2.Decode(foreign, nil, OpenOptions{}); !errors.Is(err, s2.ErrFormat) || !errors.Is(err, ErrEndian) {
		t.Errorf("fallback endian error missing an identity")
	}
}

// closeTracker records whether Decode released the backing on error.
type closeTracker struct{ closed bool }

func (c *closeTracker) Close() error { c.closed = true; return nil }

func TestDecodeClosesBackingOnError(t *testing.T) {
	s := testSchema()
	data := encode(t, s, []byte("aaaa"), nil)
	data[0] = 'X'
	c := &closeTracker{}
	if _, err := s.Decode(data, c, OpenOptions{}); err == nil {
		t.Fatal("corrupt file accepted")
	}
	if !c.closed {
		t.Fatal("backing not closed on decode error")
	}

	// And on success it is held until File.Close.
	good := encode(t, s, []byte("aaaa"), nil)
	c = &closeTracker{}
	f, err := s.Decode(good, c, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.closed {
		t.Fatal("backing closed prematurely")
	}
	f.Close()
	if !c.closed {
		t.Fatal("File.Close did not release the backing")
	}
	if err := f.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

func TestOpenModes(t *testing.T) {
	s := testSchema()
	a, b := bytes.Repeat([]byte{1}, 1000), bytes.Repeat([]byte{2}, 77)
	path := filepath.Join(t.TempDir(), "t.sf")
	err := SaveAtomic(path, func(w io.Writer) error {
		hdr := s.NewHeader()
		binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(a)))
		binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(b)))
		return s.Write(w, hdr, [][]byte{a, b})
	})
	if err != nil {
		t.Fatal(err)
	}

	// Open maps the file where it can and reads it otherwise; a mapped
	// File owns its mapping, a read one nothing.
	for _, buffered := range []bool{false, true} {
		if buffered {
			t.Cleanup(UseBufferedOpen())
		}
		f, err := s.Open(path, OpenOptions{})
		if err != nil {
			t.Fatalf("buffered %v: %v", buffered, err)
		}
		if mapped, want := f.backing != nil, MmapSupported && !buffered; mapped != want {
			t.Fatalf("buffered %v: mapped %v, want %v", buffered, mapped, want)
		}
		if !bytes.Equal(f.Section(0), a) || !bytes.Equal(f.Section(1), b) {
			t.Fatalf("buffered %v: sections do not round-trip", buffered)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("buffered %v close: %v", buffered, err)
		}
	}

	if _, err := s.Open(filepath.Join(t.TempDir(), "absent"), OpenOptions{}); err == nil {
		t.Fatal("opened a missing file")
	}
	short := filepath.Join(t.TempDir(), "short.sf")
	os.WriteFile(short, []byte("SFTEST01"), 0o644)
	if _, err := s.Open(short, OpenOptions{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("short file: %v", err)
	}
}

func TestReadStream(t *testing.T) {
	s := testSchema()
	a, b := bytes.Repeat([]byte{7}, 123), bytes.Repeat([]byte{9}, 456)
	data := encode(t, s, a, b)

	f, err := s.Read(bytes.NewReader(data), OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !bytes.Equal(f.Section(0), a) || !bytes.Equal(f.Section(1), b) {
		t.Fatal("sections do not round-trip through Read")
	}

	// A truncated stream is a format error, not a hang or a panic.
	if _, err := s.Read(bytes.NewReader(data[:len(data)-10]), OpenOptions{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated stream: %v", err)
	}
	if _, err := s.Read(bytes.NewReader(data[:4]), OpenOptions{}); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated header: %v", err)
	}
}

func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := SaveAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// A failed write neither clobbers the existing file nor leaves a
	// temp file behind.
	boom := errors.New("boom")
	if err := SaveAtomic(path, func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("write error not propagated: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "payload" {
		t.Fatalf("failed save clobbered the file: %q", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("%d directory entries after failed save, want 1", len(ents))
	}
}

func TestBytesAndView(t *testing.T) {
	vals := []uint64{1, 2, 3}
	raw := Bytes(vals)
	if len(raw) != 24 {
		t.Fatalf("Bytes: %d bytes for 3 uint64s", len(raw))
	}
	raw[0] = 42 // aliases
	if vals[0] != 42 {
		t.Fatal("Bytes does not alias")
	}
	if Bytes([]uint64(nil)) != nil {
		t.Fatal("Bytes(nil) != nil")
	}

	// Aligned base: View aliases.
	buf := AlignedBytes(32)
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		t.Fatal("AlignedBytes base not 8-aligned")
	}
	v := View[uint64](buf, 8, 2)
	v[0] = 0xdead
	if binary.NativeEndian.Uint64(buf[8:16]) != 0xdead {
		t.Fatal("aligned View does not alias")
	}

	// Misaligned base: View copies instead of faulting.
	un := buf[1:17]
	u := View[uint64](un, 0, 2)
	if len(u) != 2 {
		t.Fatalf("misaligned View: %d elements", len(u))
	}
	if len(View[uint64](buf, 0, 0)) != 0 {
		t.Fatal("zero-count View not empty")
	}
	if AlignedBytes(0) != nil {
		t.Fatal("AlignedBytes(0) != nil")
	}
}

func TestRegistry(t *testing.T) {
	s := testSchema()
	Register(Info{
		Name:         "codec test format",
		Schema:       s,
		SectionNames: []string{"a", "b"},
	})
	info, ok := Lookup([]byte("SFTEST01 and trailing bytes"))
	if !ok || info.Name != "codec test format" {
		t.Fatalf("Lookup: %v, %v", info, ok)
	}
	if _, ok := Lookup([]byte("UNKNOWN0")); ok {
		t.Fatal("Lookup matched an unregistered magic")
	}
	found := false
	for _, i := range Registered() {
		if i.Schema.Magic == s.Magic {
			found = true
		}
	}
	if !found {
		t.Fatal("Registered() omits the test format")
	}
}

func BenchmarkWrite(b *testing.B) {
	s := testSchema()
	a := bytes.Repeat([]byte{3}, 1<<19)
	c := bytes.Repeat([]byte{5}, 1<<18)
	hdr := s.NewHeader()
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(a)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(c)))
	b.SetBytes(int64(s.FileSize([]uint64{uint64(len(a)), uint64(len(c))})))
	b.ReportAllocs()
	for range b.N {
		if err := s.Write(io.Discard, bytes.Clone(hdr), [][]byte{a, c}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	s := testSchema()
	var buf bytes.Buffer
	hdr := s.NewHeader()
	a := bytes.Repeat([]byte{3}, 1<<19)
	c := bytes.Repeat([]byte{5}, 1<<18)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(a)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(len(c)))
	if err := s.Write(&buf, hdr, [][]byte{a, c}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for range b.N {
		f, err := s.Decode(data, nil, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
