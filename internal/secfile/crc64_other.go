//go:build !amd64

package secfile

func hasCLMUL() bool { return false }

func foldCLMUL(crc uint64, p []byte, keys *[4]uint64) (lo, hi uint64) {
	panic("secfile: no folding kernel on this GOARCH")
}
