package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"blend/internal/berr"
)

// Binary persistence for the AllTables index. Save writes the segmented v4
// format described in segment.go: per-shard, per-section segments behind a
// footer directory, varint/delta-compressed. LoadFile is the only reader
// and reads v4 only; files written in the retired v1–v3 formats, or with
// the retired row layout, fail with a typed bad-index error that says how
// to rebuild them.

const (
	persistMagic = "BLND"

	persistKindMonolithic = 0
	persistKindSharded    = 1
)

// rebuildHint is appended to every rejection of a retired file format.
const rebuildHint = "rebuild it with `blend index -lake DIR -out FILE`"

// Save writes the index to w in the segmented v4 format, round-tripping
// the shard count, the global table directory, and per-shard tombstones.
// A one-shard index is written as the monolithic kind, any other as the
// sharded kind.
func (s *ShardedStore) Save(w io.Writer) error {
	return s.writeSegmented(w)
}

// SaveFile writes the index to a file durably: once it returns, a power
// loss leaves either the old file or the complete new one at path.
func (s *ShardedStore) SaveFile(path string) error {
	// Never truncate the target in place: a crash mid-write would leave
	// neither the old index nor the new one.
	f, err := replaceFile(path, func(f *os.File) error { return s.Save(f) })
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// replaceFile durably replaces the file at path with what write puts in a
// temp file beside it: the temp file is synced and renamed over path, and
// the directory synced so the rename itself survives a crash. It returns
// the renamed file, still open and positioned after the written bytes,
// whenever the rename happened (even if the directory sync then failed).
func replaceFile(path string, write func(*os.File) error) (*os.File, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	err = write(f)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp defaults to 0600
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, syncDir(dir)
}

// LoadFile reads a v4 index file and decodes all of it: every section's
// CRC, the referential integrity of every entry and the tombstones are
// checked, and every shard is decoded to the heap. The result is the same
// kind of object Build returns; nothing in it refers to the file or to the
// bytes read from it. Any failure — a missing, empty or retired file, a
// directory, a bad footer, a corrupt section — is a typed bad-index error.
func LoadFile(path string) (*ShardedStore, error) {
	sf, err := readSegFile(path)
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.load", err)
	}
	s, err := sf.decode()
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.load", err)
	}
	return s, nil
}

// checkHeader validates the fixed header of an index file: magic, format
// version, kind, and layout word. Files in a retired format — v1–v3, or a
// v4 file written with the row layout — are rejected with a message that
// names the format and says how to rebuild.
func checkHeader(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("file of %d bytes is too short for an index header", len(data))
	}
	if string(data[:4]) != persistMagic {
		return fmt.Errorf("bad index magic %q", data[:4])
	}
	switch v := getU32(data[4:]); v {
	case persistVersionSegmented:
	case 1, 2, 3:
		return fmt.Errorf("index format v%d is no longer supported; %s", v, rebuildHint)
	default:
		return fmt.Errorf("unsupported index version %d", v)
	}
	if len(data) < segHeaderSize {
		return fmt.Errorf("file of %d bytes is too short for a v4 header", len(data))
	}
	if kind := data[8]; kind != persistKindMonolithic && kind != persistKindSharded {
		return fmt.Errorf("unknown index kind %d", kind)
	}
	if layout := getU32(data[9:]); layout != 0 {
		return fmt.Errorf("index layout %d is no longer supported (only the column layout is); %s", layout, rebuildHint)
	}
	return nil
}
