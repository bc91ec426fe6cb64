//go:build !unix

package secfile

import (
	"errors"
	"os"
)

// mmapSupported: no zero-copy open on this platform; Open reads the
// file into memory.
const mmapSupported = false

func mmapFile(f *os.File, size int) ([]byte, func() error, error) {
	return nil, nil, errors.ErrUnsupported
}
