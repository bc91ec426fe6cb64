package secfile

// foldCLMUL XORs crc, an uninverted CRC register, into p's first 8
// bytes and folds p with PCLMULQDQ into a 128-bit remainder (lo, hi)
// congruent to it modulo P. len(p) must be a multiple of 16 and at
// least foldMin; keys is foldKeys.
//
//go:noescape
func foldCLMUL(crc uint64, p []byte, keys *[4]uint64) (lo, hi uint64)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// hasCLMUL reports PCLMULQDQ (CPUID leaf 1, ECX bit 1). No GOAMD64
// level implies it, so it is asked at run time.
func hasCLMUL() bool { return cpuid1ECX()&(1<<1) != 0 }
