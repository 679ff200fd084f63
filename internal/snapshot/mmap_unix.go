//go:build unix

package snapshot

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and shared, so the posting
// blob lives in page cache — one physical copy no matter how many
// co-located processes map the same snapshot.
func mmapFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 {
		return nil, fmt.Errorf("snapshot: cannot map %d-byte file", size)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("snapshot: file size %d overflows int", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping produced by mmapFile.
func munmapFile(data []byte) error { return syscall.Munmap(data) }
