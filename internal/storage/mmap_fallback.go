//go:build !unix

package storage

import (
	"fmt"
	"io"
	"os"
)

// mmapFile on platforms without the unix mmap syscall falls back to
// reading the whole file into memory; MapFile decodes it the same way.
func mmapFile(f *os.File, size int64) (data []byte, release func() error, err error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("cannot map empty index file")
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	d, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, err
	}
	return d, func() error { return nil }, nil
}

// syncDir is a no-op where a directory cannot be opened for fsync; there
// the file system alone decides when a rename becomes durable.
func syncDir(string) error { return nil }
