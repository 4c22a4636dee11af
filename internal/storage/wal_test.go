package storage

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"blend/internal/table"
)

func walTestTable(name string) *table.Table {
	t := table.New(name, "Team", "Size")
	t.MustAppendRow("HR", "33")
	t.MustAppendRow("IT", "92")
	t.InferKinds()
	return t
}

func TestWALRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, recs, gen, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || gen != 0 {
		t.Fatalf("fresh log: recs=%d gen=%d", len(recs), gen)
	}
	want := walTestTable("W1")
	if err := w.AddTables([]*table.Table{want}); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveTable(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, gen, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if gen != 0 || len(recs) != 3 {
		t.Fatalf("replay: recs=%d gen=%d", len(recs), gen)
	}
	tables, ok := recs[0].IsAddTables()
	if !ok || len(tables) != 1 {
		t.Fatalf("rec 0 = %+v", recs[0])
	}
	got := tables[0]
	if got.Name != want.Name || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("decoded table %+v, want %+v", got, want)
	}
	if len(got.Columns) != len(want.Columns) || got.Columns[1].Kind != want.Columns[1].Kind {
		t.Fatalf("decoded columns %+v, want %+v", got.Columns, want.Columns)
	}
	if tid, ok := recs[1].IsRemove(); !ok || tid != 7 {
		t.Fatalf("rec 1 = %+v", recs[1])
	}
	if !recs[2].IsCompact() {
		t.Fatalf("rec 2 = %+v", recs[2])
	}
}

// TestWALTornTail simulates a crash mid-append: the torn final record is
// dropped and the file truncated back to the last intact boundary, so the
// next append extends a clean tail.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveTable(1); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveTable(2); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, recs, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("torn replay: %d records, want 1", len(recs))
	}
	if err := w2.RemoveTable(3); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, _, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("post-truncate replay: %d records, want 2", len(recs))
	}
}

// TestWALCheckpoint verifies Checkpoint replaces the log with one marker:
// earlier mutations are never replayed again, the generation survives, the
// appends after it replay in order, and the old log was replaced by a
// rename (a handle opened before the checkpoint still reads the old
// records) with no temp file left behind.
func TestWALCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddTables([]*table.Table{walTestTable("W1")}); err != nil {
		t.Fatal(err)
	}
	before, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()
	if err := w.Checkpoint(42); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveTable(5); err != nil {
		t.Fatal(err)
	}
	if err := w.AddTables([]*table.Table{walTestTable("W2")}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	old, err := io.ReadAll(before)
	if err != nil {
		t.Fatal(err)
	}
	if recs, gen, _ := replayWAL(old); gen != 0 || len(recs) != 1 {
		t.Fatalf("pre-checkpoint log was rewritten in place: recs=%d gen=%d", len(recs), gen)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Fatalf("directory after checkpoint holds %v, want only wal.log", entries)
	}

	w2, recs, gen, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if gen != 42 {
		t.Fatalf("checkpoint generation %d, want 42", gen)
	}
	if len(recs) != 2 {
		t.Fatalf("post-checkpoint replay: %d records, want 2", len(recs))
	}
	if tid, ok := recs[0].IsRemove(); !ok || tid != 5 {
		t.Fatalf("rec 0 = %+v", recs[0])
	}
	if tables, ok := recs[1].IsAddTables(); !ok || len(tables) != 1 || tables[0].Name != "W2" {
		t.Fatalf("rec 1 = %+v", recs[1])
	}
}
