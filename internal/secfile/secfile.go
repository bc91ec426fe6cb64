// Package secfile is the repository's on-disk format discipline,
// factored out of the two formats that first implemented it
// (internal/graph/gstore's "FWGSTOR1" CSR graphs and
// internal/serve's "FWSNAP01" snapshots): a checksummed-section file
// codec that a format plugs a schema into instead of hand-rolling its
// own header, table, and I/O plumbing.
//
// Every secfile-based format shares this shape:
//
//	offset  size  field
//	0       8     magic (8 bytes, format-specific)
//	8       4     format version (little-endian u32)
//	12      1     section byte order: 0 little-endian, 1 big-endian
//	13      3     reserved (zero)
//	16      ...   format-specific scalar fields (little-endian)
//	T       24×S  section table: S × (offset u64, length u64,
//	              CRC-64/XZ u64), at the schema's TableOff
//	H       ...   sections, each 8-byte aligned, at the schema's
//	              HeaderSize
//
// The checksum is CRC-64/XZ, which the CRC catalogue also lists as
// CRC-64/GO-ECMA: polynomial 0x42F0E1EBA9EA3693 (ECMA-182), reflected,
// initial value and final XOR all ones, check value 0x995DC9BBDF1939FA
// — what hash/crc64 computes with crc64.ECMA. It is not the
// catalogue's CRC-64/ECMA-182 (init 0, not reflected), which gives
// other values. On amd64 CPUs with PCLMULQDQ a folding kernel computes
// it at memory speed; elsewhere hash/crc64's table loop does.
//
// Header scalars are always little-endian; section payloads are raw
// native-order bytes, with the writer's order recorded at offset 12 so
// a foreign-order file fails loudly instead of decoding garbage.
//
// The codec owns everything below the schema:
//
//   - Write lays sections out canonically (8-byte aligned, in order,
//     zero padding) and fills the table with offsets, lengths, and
//     CRC-64/XZ checksums.
//   - Parse pins a file's table to exactly the canonical layout derived
//     from its own header scalars, so a crafted table has nowhere to
//     point, and bounds every size claim through the schema's
//     SectionSizes callback before anything is allocated or sliced.
//   - Open maps the file zero-copy where the platform allows (the
//     caller's views alias the page cache; Close unmaps), falling back
//     to a buffered read into an 8-aligned buffer.
//   - Read decodes a stream (gzip, pipes) with geometric buffer growth
//     toward the header's claimed size, so a hostile header fails at
//     the stream's real end instead of forcing one giant allocation.
//   - SaveAtomic writes temp + fsync + rename with a best-effort
//     directory fsync, so readers never see a torn file and a crash
//     never destroys the previous good one.
//
// Formats built on the codec register themselves (see Register) so
// inspection tools like cmd/fwtool can dump any format's header,
// sections, and checksum status without format-specific code.
package secfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"
)

const (
	// PreludeSize is the fixed part every header starts with: magic,
	// version, byte-order tag, reserved padding.
	PreludeSize = 16
	// EntrySize is one section-table entry: offset, length, CRC-64.
	EntrySize = 24

	// LittleEndianTag and BigEndianTag are the byte-order values stored
	// at header offset 12.
	LittleEndianTag = 0
	BigEndianTag    = 1
)

// Generic error identities. Schemas carry their own identities too
// (Schema.ErrFormat et al.), and every failure wraps both, so callers
// can test either the format's error or the codec's.
var (
	ErrFormat   = errors.New("secfile: malformed section file")
	ErrChecksum = errors.New("secfile: section checksum mismatch")
	ErrEndian   = errors.New("secfile: file written with foreign byte order")
)

// NativeEndian is the byte-order tag this process writes and accepts:
// LittleEndianTag or BigEndianTag.
var NativeEndian = func() byte {
	x := uint16(1)
	if *(*byte)(unsafe.Pointer(&x)) == 1 {
		return LittleEndianTag
	}
	return BigEndianTag
}()

// hostEndian is the tag Write stamps and Parse accepts. It equals
// NativeEndian except in tests, which swap it to drive the big-endian
// header path on little-endian hardware (see export_test.go).
var hostEndian = NativeEndian

// MmapSupported reports whether Open has a zero-copy path on this
// platform.
const MmapSupported = mmapSupported

// Schema defines one on-disk format over the codec: its identity
// (magic, version), header geometry, and how its scalar header fields
// determine each section's byte length. A format is a Schema plus the
// code that fills and reads its scalar fields — all byte-level
// discipline lives in the codec.
type Schema struct {
	// Magic is the 8-byte file identity sniffed by auto-detection.
	Magic string
	// Version is the only format version this schema accepts.
	Version uint32
	// HeaderSize is the full header length; sections start here.
	HeaderSize int
	// TableOff is the section table's offset within the header.
	TableOff int
	// NumSections is the table's entry count.
	NumSections int
	// SectionSizes decodes the schema's scalar header fields (hdr is
	// exactly HeaderSize bytes, prelude already validated) and returns
	// each section's byte length. It must reject implausible size
	// claims so a hostile header can never drive a giant allocation.
	SectionSizes func(hdr []byte) ([]uint64, error)

	// ErrFormat, ErrChecksum, and ErrEndian are the format's own error
	// identities, wrapped into every corresponding failure alongside
	// the codec's. Nil fields fall back to ErrFormat (and ultimately to
	// the codec's identities).
	ErrFormat   error
	ErrChecksum error
	ErrEndian   error
}

// Section is one table entry: a payload's offset, byte length, and
// CRC-64/XZ checksum.
type Section struct{ Off, Len, CRC uint64 }

// IsMagic reports whether head (the first bytes of a file or stream)
// starts a file of this schema's format.
func (s *Schema) IsMagic(head []byte) bool {
	return len(head) >= len(s.Magic) && string(head[:len(s.Magic)]) == s.Magic
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Layout assigns the canonical section geometry for the given payload
// sizes: offsets in file order after the header, each 8-byte aligned.
func (s *Schema) Layout(sizes []uint64) []Section {
	secs := make([]Section, len(sizes))
	off := uint64(s.HeaderSize)
	for i, sz := range sizes {
		secs[i] = Section{Off: off, Len: sz}
		off = align8(off + sz)
	}
	return secs
}

// FileSize returns the total encoded size for the given payload sizes.
func (s *Schema) FileSize(sizes []uint64) uint64 {
	return fileEnd(s.Layout(sizes), s.HeaderSize)
}

func fileEnd(secs []Section, headerSize int) uint64 {
	if len(secs) == 0 {
		return uint64(headerSize)
	}
	last := secs[len(secs)-1]
	return align8(last.Off + last.Len)
}

// errFormat wraps a structural failure in the schema's and the codec's
// format identities.
func (s *Schema) errFormat(format string, args ...any) error {
	if s.ErrFormat != nil {
		return fmt.Errorf("%w: %w: "+format, append([]any{s.ErrFormat, ErrFormat}, args...)...)
	}
	return fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
}

func (s *Schema) errChecksum(section int) error {
	if s.ErrChecksum != nil {
		return fmt.Errorf("%w: %w: section %d", s.ErrChecksum, ErrChecksum, section)
	}
	return fmt.Errorf("%w: section %d", ErrChecksum, section)
}

func (s *Schema) errEndian() error {
	own := s.ErrEndian
	if own == nil {
		own = s.ErrFormat
	}
	if own != nil {
		return fmt.Errorf("%w: %w", own, ErrEndian)
	}
	return ErrEndian
}

// NewHeader allocates a header with the prelude stamped (magic,
// version, native byte-order tag); the format fills its scalar fields
// into the rest before Write.
func (s *Schema) NewHeader() []byte {
	hdr := make([]byte, s.HeaderSize)
	copy(hdr, s.Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], s.Version)
	hdr[12] = hostEndian
	return hdr
}

// Write emits hdr followed by the section payloads in the canonical
// layout: the table at TableOff is filled with each part's offset,
// length, and CRC-64/XZ checksum, and every section is 8-byte
// aligned with zero padding (including trailing padding to the aligned
// file end). hdr must come from NewHeader with the format's scalar
// fields already placed.
func (s *Schema) Write(w io.Writer, hdr []byte, parts [][]byte) error {
	if len(parts) != s.NumSections {
		return fmt.Errorf("secfile: %s: %d parts for %d sections", s.Magic, len(parts), s.NumSections)
	}
	sizes := make([]uint64, len(parts))
	for i, p := range parts {
		sizes[i] = uint64(len(p))
	}
	secs := s.Layout(sizes)
	for i, p := range parts {
		secs[i].CRC = Checksum(p)
		ent := hdr[s.TableOff+EntrySize*i:]
		binary.LittleEndian.PutUint64(ent[0:8], secs[i].Off)
		binary.LittleEndian.PutUint64(ent[8:16], secs[i].Len)
		binary.LittleEndian.PutUint64(ent[16:24], secs[i].CRC)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var pad [8]byte
	pos := uint64(s.HeaderSize)
	for i, p := range parts {
		if secs[i].Off > pos {
			if _, err := w.Write(pad[:secs[i].Off-pos]); err != nil {
				return err
			}
			pos = secs[i].Off
		}
		if _, err := w.Write(p); err != nil {
			return err
		}
		pos += uint64(len(p))
	}
	if end := fileEnd(secs, s.HeaderSize); end > pos {
		if _, err := w.Write(pad[:end-pos]); err != nil {
			return err
		}
	}
	return nil
}

// Parse validates hdr's prelude, derives the section sizes from the
// scalar fields via SectionSizes, and pins the table to exactly the
// canonical layout — alignment, ordering, and non-overlap in one
// comparison, leaving a crafted table nowhere to point. total, when
// >= 0, is the number of bytes actually available (file or buffer
// size) and is checked against the claimed file size; pass -1 on the
// stream path where only the header has been read.
func (s *Schema) Parse(hdr []byte, total int64) ([]Section, error) {
	if len(hdr) < s.HeaderSize {
		return nil, s.errFormat("short header (%d bytes)", len(hdr))
	}
	if !s.IsMagic(hdr) {
		return nil, s.errFormat("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != s.Version {
		return nil, s.errFormat("unsupported version %d", v)
	}
	if hdr[12] != hostEndian {
		return nil, s.errEndian()
	}
	sizes, err := s.SectionSizes(hdr[:s.HeaderSize])
	if err != nil {
		return nil, s.errFormat("%v", err)
	}
	if len(sizes) != s.NumSections {
		return nil, fmt.Errorf("secfile: %s schema returned %d sizes for %d sections", s.Magic, len(sizes), s.NumSections)
	}
	want := s.Layout(sizes)
	secs := make([]Section, s.NumSections)
	for i := range secs {
		ent := hdr[s.TableOff+EntrySize*i:]
		secs[i] = Section{
			Off: binary.LittleEndian.Uint64(ent[0:8]),
			Len: binary.LittleEndian.Uint64(ent[8:16]),
			CRC: binary.LittleEndian.Uint64(ent[16:24]),
		}
		if secs[i].Off != want[i].Off || secs[i].Len != want[i].Len {
			return nil, s.errFormat("section %d geometry %d+%d, want %d+%d",
				i, secs[i].Off, secs[i].Len, want[i].Off, want[i].Len)
		}
	}
	if size := fileEnd(secs, s.HeaderSize); total >= 0 && size > uint64(total) {
		return nil, s.errFormat("truncated (%d bytes, need %d)", total, size)
	}
	return secs, nil
}

// VerifySections checks every section's recorded checksum against
// data. The sections must come from a Parse whose total covered data.
func (s *Schema) VerifySections(data []byte, secs []Section) error {
	for i, sec := range secs {
		if got := Checksum(data[sec.Off : sec.Off+sec.Len]); got != sec.CRC {
			return s.errChecksum(i)
		}
	}
	return nil
}

// verifyChunk is VerifySectionsReaderAt's read size.
const verifyChunk = 1 << 20

// VerifySectionsReaderAt is VerifySections for callers that never
// materialize the whole file (paged opens): it streams each section
// through a fixed-size buffer, so verification costs one sequential
// read of the file and O(1) memory regardless of file size. The
// sections must come from a Parse whose total covered the file.
func (s *Schema) VerifySectionsReaderAt(r io.ReaderAt, secs []Section) error {
	buf := make([]byte, verifyChunk)
	for i, sec := range secs {
		var crc uint64
		for off := uint64(0); off < sec.Len; {
			n := uint64(len(buf))
			if rest := sec.Len - off; rest < n {
				n = rest
			}
			if _, err := r.ReadAt(buf[:n], int64(sec.Off+off)); err != nil {
				return s.errFormat("reading section %d: %v", i, err)
			}
			crc = update(crc, buf[:n])
			off += n
		}
		if crc != sec.CRC {
			return s.errChecksum(i)
		}
	}
	return nil
}

// OpenMode selects how Open gets the file's bytes.
type OpenMode int

const (
	// ModeAuto maps the file when the platform supports it and falls
	// back to a buffered read.
	ModeAuto OpenMode = iota
	// ModeMmap requires the zero-copy mapping; Open fails where mmap
	// is unavailable.
	ModeMmap
	// ModeBuffered always reads the file into memory.
	ModeBuffered
)

// OpenOptions tunes Open, Read, and Decode.
type OpenOptions struct {
	// Mode selects mmap vs buffered read (Open only).
	Mode OpenMode
	// NoVerify skips the per-section checksum verification. The
	// default (verify) reads every page once at open; skipping it
	// makes open O(offsets) at the cost of deferring corruption
	// detection to first use.
	NoVerify bool
}

// File is one parsed section file: the raw bytes, the validated
// section table, and ownership of whatever backs the bytes (an mmap,
// or nothing for heap buffers). Close releases the backing; a File is
// itself an io.Closer, so callers that alias Data can hand ownership
// to whatever outlives them.
type File struct {
	// Data holds the complete file, header included. Views into it
	// stay valid until Close.
	Data []byte
	// Secs is the validated section table.
	Secs []Section

	schema  *Schema
	backing io.Closer
}

// Header returns the file's header bytes.
func (f *File) Header() []byte { return f.Data[:f.schema.HeaderSize] }

// Section returns section i's payload bytes, aliasing Data.
func (f *File) Section(i int) []byte {
	s := f.Secs[i]
	return f.Data[s.Off : s.Off+s.Len]
}

// Close releases the backing storage (an munmap for mapped files;
// a no-op otherwise). Safe to call more than once.
func (f *File) Close() error {
	b := f.backing
	f.backing = nil
	if b != nil {
		return b.Close()
	}
	return nil
}

// Decode parses and (unless opts.NoVerify) checksum-verifies data,
// which must hold a complete file. backing, when non-nil, owns data's
// memory; it is closed on error, and on success the returned File's
// Close releases it. Decode never panics on corrupt input.
func (s *Schema) Decode(data []byte, backing io.Closer, opts OpenOptions) (*File, error) {
	fail := func(err error) (*File, error) {
		if backing != nil {
			backing.Close()
		}
		return nil, err
	}
	secs, err := s.Parse(data, int64(len(data)))
	if err != nil {
		return fail(err)
	}
	if !opts.NoVerify {
		if err := s.VerifySections(data, secs); err != nil {
			return fail(err)
		}
	}
	return &File{Data: data, Secs: secs, schema: s, backing: backing}, nil
}

// mmapBacking releases a mapping when the File is closed.
type mmapBacking struct{ unmap func() error }

func (b *mmapBacking) Close() error { return b.unmap() }

// Open opens a section file, zero-copy via mmap when the platform
// allows (Data aliases the file pages; Close unmaps them), falling
// back to a buffered read into an 8-aligned buffer under ModeAuto.
func (s *Schema) Open(path string, opts OpenOptions) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if size < int64(s.HeaderSize) {
		f.Close()
		return nil, s.errFormat("%s is %d bytes", path, size)
	}

	if opts.Mode != ModeBuffered && mmapSupported {
		data, unmap, merr := mmapFile(f, int(size))
		if merr == nil {
			f.Close() // the mapping outlives the descriptor
			return s.Decode(data, &mmapBacking{unmap: unmap}, opts)
		}
		if opts.Mode == ModeMmap {
			f.Close()
			return nil, fmt.Errorf("secfile: mmap %s: %w", path, merr)
		}
	} else if opts.Mode == ModeMmap {
		f.Close()
		return nil, fmt.Errorf("secfile: mmap %s: %w", path, errors.ErrUnsupported)
	}

	defer f.Close()
	buf := AlignedBytes(int(size))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return s.Decode(buf, nil, opts)
}

// Read decodes a section-file stream (the buffered path gzip-wrapped
// files use). The header is read first so the exact remaining size is
// known; the buffer then grows geometrically toward it, so a hostile
// header claiming a huge file fails at the stream's real end instead
// of forcing one giant allocation up front.
func (s *Schema) Read(r io.Reader, opts OpenOptions) (*File, error) {
	hdr := make([]byte, s.HeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, s.errFormat("%v", err)
	}
	secs, err := s.Parse(hdr, -1)
	if err != nil {
		return nil, err
	}
	total := fileEnd(secs, s.HeaderSize)
	buf := AlignedBytes(s.HeaderSize)
	copy(buf, hdr)
	for have := uint64(s.HeaderSize); have < total; {
		next := have * 2
		if next < 1<<24 {
			next = 1 << 24
		}
		if next > total {
			next = total
		}
		grown := AlignedBytes(int(next))
		copy(grown, buf[:have])
		if _, err := io.ReadFull(r, grown[have:]); err != nil {
			return nil, s.errFormat("truncated at byte %d of %d: %v", have, total, err)
		}
		buf = grown
		have = next
	}
	return s.Decode(buf, nil, opts)
}

// SaveAtomic writes a file via write to a temp file in path's
// directory, fsyncs it, renames it over path, and best-effort fsyncs
// the directory, so readers never see a half-written file and a crash
// never corrupts an existing one. (The data fsync before the rename
// matters: a journaled rename over unflushed blocks could otherwise
// survive a crash as a truncated destination, destroying a previous
// good file.)
func SaveAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Bytes views s's elements as raw bytes in native order. T must be a
// fixed-size type with no pointers (the scalar arrays sections hold).
func Bytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// View aliases count Ts at data[off:] when the base pointer meets T's
// alignment (mmap bases and AlignedBytes buffers always do) and copies
// otherwise, so decoding never performs a misaligned load. The caller
// must have bounds-checked off and count against data (Parse's
// geometry pinning does exactly that).
func View[T any](data []byte, off uint64, count int) []T {
	if count == 0 {
		return []T{}
	}
	var zero T
	size := uint64(unsafe.Sizeof(zero))
	p := unsafe.Pointer(&data[off])
	if uintptr(p)%uintptr(unsafe.Alignof(zero)) == 0 {
		return unsafe.Slice((*T)(p), count)
	}
	out := make([]T, count)
	copy(Bytes(out), data[off:off+uint64(count)*size])
	return out
}

// AlignedBytes returns an n-byte slice whose base address is 8-byte
// aligned (it views a []uint64), so decoders can alias 8-byte-wide
// sections without copying even on the buffered path.
func AlignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}
