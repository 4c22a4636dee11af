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
// footer directory, varint/delta-compressed, designed so MapFile can
// memory-map the file and decode shards lazily. Load, LoadFile and MapFile
// read v4 only; files written in the retired v1–v3 formats, or with the
// retired row layout, fail with a typed bad-index error that says how to
// rebuild them.

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
// sharded kind. On a lazily mapped store this first materializes every
// shard (a full save must serialize every shard anyway); a shard that
// fails its integrity checks fails the save with a typed bad-index error
// before anything is written.
func (s *ShardedStore) Save(w io.Writer) error {
	shards := make([]*Store, len(s.shards))
	for i := range shards {
		st, err := s.loadShard(i)
		if err != nil {
			return err
		}
		shards[i] = st
	}
	return writeSegmented(w, shards, s.refs)
}

// SaveFile writes the index to a file durably: once it returns, a power
// loss leaves either the old file or the complete new one at path.
func (s *ShardedStore) SaveFile(path string) error {
	// Never truncate the target in place: path may back the live mapping
	// of the very store being saved (open-mapped → append → save flows),
	// and an in-place os.Create would tear the pages out from under the
	// save's own lazy shard reads mid-write.
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

// Load reads a v4 index previously written by Save and decodes every shard
// eagerly. Unreadable, corrupt, or retired-format inputs report typed
// bad-index errors.
func Load(r io.Reader) (*ShardedStore, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.load", err)
	}
	idx, err := loadSegmented(data)
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.load", err)
	}
	return idx, nil
}

// LoadFile reads a v4 index from a file, decoding everything eagerly. A
// missing or unreadable file reports a typed bad-index error wrapping the
// underlying cause, so errors.Is(err, fs.ErrNotExist) still works.
func LoadFile(path string) (*ShardedStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.open", err)
	}
	defer f.Close()
	return Load(f)
}

// MapFile opens a v4 index file for serving. The file is memory-mapped:
// only the footer directory, the table-to-shard refs, and the tombstone
// bitmaps are decoded up front, so opening is O(footer) instead of
// O(index); shards materialize on first touch (see ShardedStore.shard).
// Callers that are done with a mapped index should Close it.
func MapFile(path string) (*ShardedStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.open", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.map", err)
	}
	data, release, err := mmapFile(f, fi.Size())
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.map", err)
	}
	sf, err := parseSegFile(data)
	if err != nil {
		release()
		return nil, berr.Wrap(berr.CodeBadIndex, "storage.map", err)
	}
	sf.unmap = release
	return sf.lazyIndex(), nil
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
