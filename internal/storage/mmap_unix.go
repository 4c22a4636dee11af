//go:build unix

package storage

import (
	"fmt"
	"os"
	"syscall"
)

// mmapFile maps the file read-only. The returned release function unmaps
// it; the caller may close f immediately (the mapping keeps the pages
// reachable). Reads fault pages in through the OS page cache, so repeated
// opens of a warm index cost no I/O.
func mmapFile(f *os.File, size int64) (data []byte, release func() error, err error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("cannot map empty index file")
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("index file of %d bytes exceeds address space", size)
	}
	d, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap: %w", err)
	}
	return d, func() error { return syscall.Munmap(d) }, nil
}

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
