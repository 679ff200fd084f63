//go:build !unix

package snapshot

import (
	"errors"
	"os"
)

// mmapFile cannot map on this platform; LoadEngineFile then copy-loads
// the file with LoadEngine.
func mmapFile(f *os.File) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

func munmapFile(data []byte) error { return nil }
