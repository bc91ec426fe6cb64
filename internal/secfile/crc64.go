package secfile

import (
	"encoding/binary"
	"hash/crc64"
	"math/bits"
)

// crcTable drives hash/crc64's table loop, which computes the section
// checksum (CRC-64/XZ, see the package doc) on every path: alone where
// there is no folding kernel, and for the kernel's remainder and
// tail. It is also the oracle the kernel is tested against.
var crcTable = crc64.MakeTable(crc64.ECMA)

// foldMin is the shortest input the folding kernel takes: one 64-byte
// block, four 128-bit lanes.
const foldMin = 64

// foldKeys are the folding kernel's multipliers, as {low qword, high
// qword} pairs: first for a fold distance of 512 bits (each of the
// four lanes onto the block 64 bytes on), then of 128 bits (lane onto
// lane).
//
// A lane holds 128 message bits L = H·x⁶⁴ + Lo, H being its low qword
// (the earlier bytes). Moving it d bits on multiplies it by x^d, and
// the keys replace x^(d+64) and x^d with their residues mod P. A
// carry-less product of two reflected 64-bit values reads one degree
// too high as a reflected 128-bit lane, so each key is one power
// lower: x^(d+63) for the low qword and x^(d−1) for the high one.
var foldKeys = [4]uint64{
	foldKey(512 + 63), foldKey(512 - 1),
	foldKey(128 + 63), foldKey(128 - 1),
}

// foldKey returns x^k mod P, bit-reversed into the reflected order
// the lanes hold.
func foldKey(k int) uint64 {
	const poly = 0x42F0E1EBA9EA3693 // crc64.ECMA unreflected, x⁶⁴ implied
	r := uint64(1)
	for range k {
		carry := r >> 63
		r <<= 1
		if carry != 0 {
			r ^= poly
		}
	}
	return bits.Reverse64(r)
}

// useCLMUL selects the folding kernel; it is false where the CPU or
// GOARCH has none.
var useCLMUL = hasCLMUL()

// update returns crc extended by p, exactly crc64.Update(crc,
// crcTable, p). Inputs of at least foldMin bytes have their whole
// 16-byte blocks folded by the kernel into a 128-bit remainder
// congruent to them modulo P; that remainder and the tail of under 16
// bytes go through the table.
func update(crc uint64, p []byte) uint64 {
	if !useCLMUL || len(p) < foldMin {
		return crc64.Update(crc, crcTable, p)
	}
	n := len(p) &^ 15
	lo, hi := foldCLMUL(^crc, p[:n], &foldKeys)
	var rem [16]byte
	binary.LittleEndian.PutUint64(rem[:8], lo)
	binary.LittleEndian.PutUint64(rem[8:], hi)
	// The kernel took the inverted register in; the remainder starts
	// from a zero register, which crc64.Update spells ^0.
	crc = crc64.Update(^uint64(0), crcTable, rem[:])
	return crc64.Update(crc, crcTable, p[n:])
}

// Checksum is the codec's section checksum, CRC-64/XZ over raw bytes.
func Checksum(b []byte) uint64 { return update(0, b) }
