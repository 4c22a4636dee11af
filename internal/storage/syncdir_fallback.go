//go:build !unix

package storage

// syncDir is a no-op where a directory cannot be opened for fsync; there
// the file system alone decides when a rename becomes durable.
func syncDir(string) error { return nil }
