package secfile

// SwapHostEndian flips the byte-order tag Write stamps and Parse
// accepts, so tests on little-endian hardware can produce and consume
// synthetic big-endian-tagged files (and vice versa). The returned
// func restores the real tag; callers must t.Cleanup or defer it, and
// must not run in parallel with other codec users.
func SwapHostEndian() (restore func()) {
	old := hostEndian
	hostEndian = 1 - old
	return func() { hostEndian = old }
}

// ForeignEndianTag is the tag SwapHostEndian switches to: the byte
// order this process does not have.
func ForeignEndianTag() byte { return 1 - NativeEndian }

// UseTableCRC routes every checksum through hash/crc64's table loop,
// as on a CPU or GOARCH without the folding kernel. The returned func
// restores the detected path; the same caveats as SwapHostEndian hold.
func UseTableCRC() (restore func()) {
	old := useCLMUL
	useCLMUL = false
	return func() { useCLMUL = old }
}

// HasFoldingKernel reports whether checksums take the folding kernel.
func HasFoldingKernel() bool { return useCLMUL }

// Update is the streaming checksum update VerifySectionsReaderAt runs.
var Update = update

// FoldKeys returns the multipliers the folding kernel is given.
func FoldKeys() [4]uint64 { return foldKeys }

const (
	FoldMin     = foldMin
	VerifyChunk = verifyChunk
)
