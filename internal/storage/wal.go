package storage

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"blend/internal/berr"
	"blend/internal/table"
)

// Minimal append-only write-ahead log for index mutations. The engine
// appends a record before publishing each generation, so a crash between a
// publish and the next Save replays the lost mutations on reopen and the
// process resumes at the generation it had published.
//
// On-disk format, one record after another:
//
//	[kind u8] [payload len u32 LE] [payload] [crc32c u32 LE]
//
// The checksum covers kind, length, and payload. Replay stops silently at
// the first torn or corrupt record (a crash mid-append leaves at most one),
// and Open truncates the file back to the last intact record so the next
// append extends a clean tail. A checkpoint record marks "the index was
// durably saved at generation g": replay starts from the last checkpoint,
// and Checkpoint replaces the log with just that marker after each
// successful Save — by writing a new file and renaming it over the old
// one, so a crash mid-checkpoint leaves either log intact, never a
// truncated one.

// WAL record kinds.
const (
	walCheckpoint byte = 1 // payload: generation u64
	walAddTables  byte = 2 // payload: serialized table batch
	walRemove     byte = 3 // payload: global table id u32
	walCompact    byte = 4 // payload: empty
)

const walOp = "storage.wal"

// WALRecord is one replayed mutation.
type WALRecord struct {
	// Kind is one of the wal* record kinds, exposed via the Is* helpers on
	// ReplaySet instead of the raw byte.
	kind   byte
	tables []*table.Table // walAddTables
	tid    int32          // walRemove
}

// IsAddTables reports whether the record is a table batch, returning it.
func (r WALRecord) IsAddTables() ([]*table.Table, bool) { return r.tables, r.kind == walAddTables }

// IsRemove reports whether the record is a table removal, returning the id.
func (r WALRecord) IsRemove() (int32, bool) { return r.tid, r.kind == walRemove }

// IsCompact reports whether the record is a compaction.
func (r WALRecord) IsCompact() bool { return r.kind == walCompact }

// WAL is an append-only mutation log. Appends are serialized by an internal
// mutex and synced to disk before returning, so a record that was reported
// written survives a crash.
type WAL struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// OpenWAL opens (creating if absent) the log at path, replays its intact
// records, and returns the log ready for appends, the mutations recorded
// since the last checkpoint, and the generation of that checkpoint (0 when
// the log has never seen one).
func OpenWAL(path string) (*WAL, []WALRecord, uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	recs, gen, good := replayWAL(data)
	if good < int64(len(data)) {
		// Torn tail from a crash mid-append: drop it so the next record
		// starts at a clean boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, 0, berr.Wrap(berr.CodeBadIndex, walOp, err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, 0, berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	// Make the log's directory entry durable in case this call created it.
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, 0, berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	return &WAL{f: f, path: path}, recs, gen, nil
}

// replayWAL decodes records until the data ends or a record fails its
// bounds or checksum, returning the mutations since the last checkpoint,
// that checkpoint's generation, and the byte offset of the intact prefix.
func replayWAL(data []byte) (recs []WALRecord, gen uint64, good int64) {
	off := 0
	for {
		if off+5 > len(data) {
			return recs, gen, int64(off)
		}
		kind := data[off]
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		if off+5+n+4 > len(data) {
			return recs, gen, int64(off)
		}
		payload := data[off+5 : off+5+n]
		sum := binary.LittleEndian.Uint32(data[off+5+n:])
		if crc32.Checksum(data[off:off+5+n], castagnoli) != sum {
			return recs, gen, int64(off)
		}
		switch kind {
		case walCheckpoint:
			if n != 8 {
				return recs, gen, int64(off)
			}
			gen = binary.LittleEndian.Uint64(payload)
			recs = recs[:0]
		case walAddTables:
			tables, err := decodeWALTables(payload)
			if err != nil {
				return recs, gen, int64(off)
			}
			recs = append(recs, WALRecord{kind: kind, tables: tables})
		case walRemove:
			if n != 4 {
				return recs, gen, int64(off)
			}
			recs = append(recs, WALRecord{kind: kind, tid: int32(binary.LittleEndian.Uint32(payload))})
		case walCompact:
			recs = append(recs, WALRecord{kind: kind})
		default:
			return recs, gen, int64(off)
		}
		off += 5 + n + 4
	}
}

// append writes one record and syncs it to disk.
func (w *WAL) append(kind byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec := make([]byte, 0, 5+len(payload)+4)
	rec = append(rec, kind)
	rec = appendU32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = appendU32(rec, crc32.Checksum(rec, castagnoli))
	if _, err := w.f.Write(rec); err != nil {
		return berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	if err := w.f.Sync(); err != nil {
		return berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	return nil
}

// AddTables logs a table batch insertion.
func (w *WAL) AddTables(tables []*table.Table) error {
	return w.append(walAddTables, encodeWALTables(tables))
}

// RemoveTable logs a table removal by global id.
func (w *WAL) RemoveTable(tid int32) error {
	return w.append(walRemove, appendU32(nil, uint32(tid)))
}

// Compact logs a compaction.
func (w *WAL) Compact() error {
	return w.append(walCompact, nil)
}

// Checkpoint replaces the log with a single checkpoint marker at gen — the
// index was just durably saved, so the mutations before it need never be
// replayed again. The marker goes to a new synced file that is renamed
// over the log, and later appends extend that file.
func (w *WAL) Checkpoint(gen uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec := make([]byte, 0, 5+8+4)
	rec = append(rec, walCheckpoint)
	rec = appendU32(rec, 8)
	rec = appendU64(rec, gen)
	rec = appendU32(rec, crc32.Checksum(rec, castagnoli))
	f, err := replaceFile(w.path, func(f *os.File) error {
		_, err := f.Write(rec)
		return err
	})
	if f != nil {
		w.f.Close() // superseded: its records were synced as they were appended
		w.f = f
	}
	if err != nil {
		return berr.Wrap(berr.CodeBadIndex, walOp, err)
	}
	return nil
}

// Close releases the log file handle.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// encodeWALTables serializes a table batch: table count, then per table its
// name, columns (name + kind byte), and rows as length-prefixed cells. All
// counts and lengths are uvarints, matching the segDecoder the replay path
// reads with.
func encodeWALTables(tables []*table.Table) []byte {
	b := binary.AppendUvarint(nil, uint64(len(tables)))
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, t := range tables {
		str(t.Name)
		b = binary.AppendUvarint(b, uint64(len(t.Columns)))
		for _, c := range t.Columns {
			str(c.Name)
			b = append(b, byte(c.Kind))
		}
		b = binary.AppendUvarint(b, uint64(len(t.Rows)))
		for _, row := range t.Rows {
			for _, cell := range row {
				str(cell)
			}
		}
	}
	return b
}

// decodeWALTables is the inverse of encodeWALTables, bounds-checked so a
// corrupt payload fails cleanly instead of panicking.
func decodeWALTables(b []byte) ([]*table.Table, error) {
	d := &segDecoder{b: b}
	numTables, err := d.count("table")
	if err != nil {
		return nil, err
	}
	tables := make([]*table.Table, 0, min(numTables, 1<<16))
	for i := 0; i < numTables; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		numCols, err := d.count("column")
		if err != nil {
			return nil, err
		}
		t := table.New(name)
		for c := 0; c < numCols; c++ {
			cn, err := d.str()
			if err != nil {
				return nil, err
			}
			kb, err := d.byte()
			if err != nil {
				return nil, err
			}
			t.Columns = append(t.Columns, table.Column{Name: cn, Kind: table.Kind(kb)})
		}
		numRows, err := d.count("row")
		if err != nil {
			return nil, err
		}
		t.Rows = make([][]string, 0, min(numRows, 1<<20))
		for r := 0; r < numRows; r++ {
			row := make([]string, numCols)
			for c := range row {
				if row[c], err = d.str(); err != nil {
					return nil, err
				}
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return tables, nil
}
