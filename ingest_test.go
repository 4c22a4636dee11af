package blend

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Failure-mode tests for the bulk-ingestion pipeline: corrupt input and
// batch atomicity, cancellation, duplicate names, and the full
// remove→compact→persist→load lifecycle.

// writeLakeDir writes n small CSV tables named <prefix>NN.csv into dir.
func writeLakeDir(t *testing.T, dir, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		body := "team,size\nHR,31\nFinance,28\n" + fmt.Sprintf("Unit%s%d,%d\n", prefix, i, 40+i)
		path := filepath.Join(dir, fmt.Sprintf("%s%02d.csv", prefix, i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func seedDiscovery(t *testing.T) *Discovery {
	t.Helper()
	seed := NewTable("seed", "team", "size")
	seed.MustAppendRow("HR", "10")
	seed.InferKinds()
	return IndexTables(ColumnStore, []*Table{seed}, WithShards(4))
}

func TestIngestCSVDirRecursive(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "top", 3)
	sub := filepath.Join(dir, "nested")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	writeLakeDir(t, sub, "deep", 2)

	d := seedDiscovery(t)
	report, err := d.IngestCSVDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if report.TablesAdded != 5 || report.FilesRead != 5 {
		t.Fatalf("report = %+v", report)
	}
	if d.NumTables() != 6 {
		t.Fatalf("NumTables = %d", d.NumTables())
	}
	// Parallel parse must not perturb deterministic id order (paths are
	// sorted; "nested/" sorts before the top-level "top*" files).
	var order []string
	for _, id := range report.TableIDs {
		order = append(order, d.TableByID(id).Name)
	}
	if want := []string{"deep00", "deep01", "top00", "top01", "top02"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("ingested table order = %v, want %v", order, want)
	}
	// Ingested content is discoverable.
	hits, err := d.Seek(context.Background(), SC([]string{"Unitdeep0", "HR"}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("ingested tables not discoverable")
	}
	if got := d.MaintStats().TablesAdded; got != 5 {
		t.Fatalf("maint counter TablesAdded = %d", got)
	}
}

func TestIngestCorruptCSVAbortsBatchAtomically(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "ok", 4)
	// "mid00.csv" sorts between ok-files? Name it so it lands mid-stream.
	if err := os.WriteFile(filepath.Join(dir, "ok01x-corrupt.csv"),
		[]byte("team,size\n\"unclosed,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Single batch covering everything: the corrupt file must leave the
	// index completely untouched.
	d := seedDiscovery(t)
	before := d.NumTables()
	_, err := d.IngestCSVDir(context.Background(), dir)
	if err == nil {
		t.Fatal("corrupt CSV must fail the ingest")
	}
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("error = %v, want bad_request", err)
	}
	if d.NumTables() != before {
		t.Fatalf("failed single-batch ingest mutated the index: %d tables", d.NumTables())
	}

	// More files than one batch: the whole 256-table batch before the
	// corrupt file commits, the in-flight batch is discarded entirely —
	// never a partial batch.
	big := t.TempDir()
	writeLakeDir(t, big, "a", ingestBatchSize)
	writeLakeDir(t, big, "c", 3)
	if err := os.WriteFile(filepath.Join(big, "b-corrupt.csv"),
		[]byte("team,size\n\"unclosed,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := seedDiscovery(t)
	report, err := d2.IngestCSVDir(context.Background(), big)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("error = %v, want bad_request", err)
	}
	// Files sort a000…a255, b-corrupt, c000…: exactly one whole batch
	// (the a-files) commits before the failure.
	if report.TablesAdded != ingestBatchSize || report.Batches != 1 {
		t.Fatalf("committed %d tables in %d batches, want one whole batch of %d",
			report.TablesAdded, report.Batches, ingestBatchSize)
	}
	if d2.NumTables() != before+ingestBatchSize {
		t.Fatalf("index holds %d tables, want %d", d2.NumTables(), before+ingestBatchSize)
	}

	// Empty file (no header): same classification.
	d3 := seedDiscovery(t)
	dir3 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir3, "empty.csv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d3.IngestCSVDir(context.Background(), dir3); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty CSV error = %v, want bad_request", err)
	}

	// WithSkipBadFiles turns both into skips.
	d4 := seedDiscovery(t)
	report, err = d4.IngestCSVDir(context.Background(), dir, WithSkipBadFiles())
	if err != nil {
		t.Fatal(err)
	}
	if report.TablesAdded != 4 || len(report.SkippedFiles) != 1 {
		t.Fatalf("skip-bad report = %+v", report)
	}
}

// cancelJournal is a write-ahead log that cancels a context on its first
// append and records nothing: it stops an ingest right after the first
// batch commits.
type cancelJournal struct{ cancel context.CancelFunc }

func (j cancelJournal) AddTables([]*Table) error { j.cancel(); return nil }
func (j cancelJournal) RemoveTable(int32) error  { return nil }
func (j cancelJournal) Compact() error           { return nil }
func (j cancelJournal) Checkpoint(uint64) error  { return nil }

func TestIngestCancellation(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "c", ingestBatchSize+44)

	// Canceled before the ingest starts: typed error, untouched index.
	d := seedDiscovery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.IngestCSVDir(ctx, dir)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error = %v, want canceled", err)
	}
	if d.NumTables() != 1 {
		t.Fatal("canceled ingest mutated the index")
	}

	// AddTables honors a context done before it starts with the same typed
	// error and commits nothing.
	tables := make([]*Table, 4)
	for i := range tables {
		tables[i] = NewTable(fmt.Sprintf("ct%d", i), "a")
		tables[i].MustAppendRow("x")
	}
	d2 := seedDiscovery(t)
	ids, err := d2.AddTables(ctx, tables)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AddTables error = %v, want canceled", err)
	}
	if len(ids) != 0 || d2.NumTables() != 1 {
		t.Fatal("canceled AddTables committed tables")
	}

	// Canceled between batches: the first whole batch stays, the rest of
	// the directory is never committed.
	d3 := seedDiscovery(t)
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	d3.Engine().SetJournal(cancelJournal{cancel: bcancel})
	report, err := d3.IngestCSVDir(bctx, dir)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error = %v, want canceled", err)
	}
	if report.TablesAdded != ingestBatchSize || report.Batches != 1 || d3.NumTables() != 1+ingestBatchSize {
		t.Fatalf("committed %d tables in %d batches (index %d), want the first batch of %d",
			report.TablesAdded, report.Batches, d3.NumTables(), ingestBatchSize)
	}

	// Whatever the cancellation timing, only whole batches may land.
	for trial := 0; trial < 5; trial++ {
		d4 := seedDiscovery(t)
		tctx, tcancel := context.WithCancel(context.Background())
		go tcancel() // races the ingest
		report, _ := d4.IngestCSVDir(tctx, dir)
		if n := report.TablesAdded; n != 0 && n != ingestBatchSize && n != ingestBatchSize+44 {
			t.Fatalf("partial batch committed: %d tables", n)
		}
	}
}

func TestIngestDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "dup", 3)
	d := seedDiscovery(t)
	if _, err := d.IngestCSVDir(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	before := d.NumTables()

	// Re-ingesting the same directory collides with the indexed names.
	_, err := d.IngestCSVDir(context.Background(), dir)
	if !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("error = %v, want duplicate_table", err)
	}
	if d.NumTables() != before {
		t.Fatal("duplicate ingest mutated the index")
	}

	// Same base filename in two subdirectories duplicates within one call.
	dir2 := t.TempDir()
	for _, sub := range []string{"a", "b"} {
		p := filepath.Join(dir2, sub)
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		writeLakeDir(t, p, "same", 1)
	}
	d2 := seedDiscovery(t)
	if _, err := d2.IngestCSVDir(context.Background(), dir2); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("intra-call duplicate error = %v, want duplicate_table", err)
	}

	// AddTables rejects intra-batch duplicates before committing anything.
	x := NewTable("twin", "a")
	x.MustAppendRow("1")
	y := NewTable("twin", "b")
	y.MustAppendRow("2")
	if _, err := d2.AddTables(context.Background(), []*Table{x, y}); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("AddTables duplicate error = %v", err)
	}
}

// TestAddTablesCommitsWholeCall: AddTables is one atomic batch however
// many tables it carries. A 300-table call whose table 290 duplicates a
// live name commits none of them, and the same call without the clash
// commits all 300 in one generation.
func TestAddTablesCommitsWholeCall(t *testing.T) {
	d := seedDiscovery(t)
	gen := d.Generation()
	tables := make([]*Table, 300)
	for i := range tables {
		tables[i] = NewTable(fmt.Sprintf("w%03d", i), "team")
		tables[i].MustAppendRow(fmt.Sprintf("Unit%d", i))
	}
	clash := tables[290]
	tables[290] = NewTable("seed", "team")
	tables[290].MustAppendRow("HR")
	if _, err := d.AddTables(context.Background(), tables); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("error = %v, want duplicate_table", err)
	}
	if d.NumTables() != 1 || d.Generation() != gen {
		t.Fatalf("rejected call committed: %d tables, generation %d (want 1, %d)",
			d.NumTables(), d.Generation(), gen)
	}
	tables[290] = clash
	ids, err := d.AddTables(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 300 || d.NumTables() != 301 || d.Generation() != gen+1 {
		t.Fatalf("%d ids, %d tables, generation %d; want 300, 301, %d",
			len(ids), d.NumTables(), d.Generation(), gen+1)
	}
}

// TestIndexCSVDirMatchesIngest: a fresh build and an ingest into an empty
// index read a lake through the same loader, so a lake with a
// subdirectory yields the same table names in the same id order either
// way.
func TestIndexCSVDirMatchesIngest(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "top", 3)
	sub := filepath.Join(dir, "nested")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	writeLakeDir(t, sub, "deep", 2)
	names := func(d *Discovery) []string {
		var out []string
		for id := range int32(d.NumTables()) {
			out = append(out, d.TableByID(id).Name)
		}
		return out
	}

	built, err := IndexCSVDir(ColumnStore, dir, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ingested := IndexTables(ColumnStore, nil, WithShards(4))
	if _, err := ingested.IngestCSVDir(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	want := []string{"deep00", "deep01", "top00", "top01", "top02"}
	if got := names(built); !reflect.DeepEqual(got, want) {
		t.Fatalf("IndexCSVDir tables = %v, want %v", got, want)
	}
	if got := names(ingested); !reflect.DeepEqual(got, want) {
		t.Fatalf("IngestCSVDir tables = %v, want %v", got, want)
	}
}

func TestRemoveCompactPersistLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "life", 6)
	d := seedDiscovery(t)
	if _, err := d.IngestCSVDir(context.Background(), dir); err != nil {
		t.Fatal(err)
	}

	victim := d.TableIDByName("life02")
	if victim < 0 {
		t.Fatal("ingested table not resolvable by name")
	}
	if err := d.RemoveTable(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveTable(victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove error = %v, want not_found", err)
	}
	// Persist with the tombstone in place, reload, verify it survived.
	withTomb := filepath.Join(t.TempDir(), "tomb.blend")
	if err := d.SaveIndex(withTomb); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenIndex(withTomb)
	if err != nil {
		t.Fatal(err)
	}
	if rd.TableIDByName("life02") != -1 {
		t.Fatal("tombstone lost across persistence")
	}
	if rd.Stats().Tombstones != 1 {
		t.Fatalf("reloaded tombstones = %d", rd.Stats().Tombstones)
	}

	// Compact, persist, reload: space reclaimed, queries unchanged.
	queries := [][]string{{"HR", "Finance"}, {"Unitlife4", "HR"}}
	wantHits := make([][]string, len(queries))
	for i, q := range queries {
		hits, err := d.Seek(context.Background(), SC(q, 10))
		if err != nil {
			t.Fatal(err)
		}
		wantHits[i] = d.TableNames(hits)
	}
	if got, err := d.Compact(); err != nil || got != 1 {
		t.Fatalf("Compact = %d, %v", got, err)
	}
	compacted := filepath.Join(t.TempDir(), "compacted.blend")
	if err := d.SaveIndex(compacted); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenIndex(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats().Tombstones != 0 {
		t.Fatal("compacted index carries tombstones")
	}
	if d2.NumTables() != 6 { // 1 seed + 6 ingested - 1 removed
		t.Fatalf("NumTables = %d after compact+reload", d2.NumTables())
	}
	for i, q := range queries {
		hits, err := d2.Seek(context.Background(), SC(q, 10))
		if err != nil {
			t.Fatal(err)
		}
		if got := d2.TableNames(hits); !reflect.DeepEqual(got, wantHits[i]) {
			t.Fatalf("query %d differs after compact+persist+load:\n got %v\nwant %v", i, got, wantHits[i])
		}
	}
	if d2.TableIDByName("life02") != -1 {
		t.Fatal("removed table resurrected by compaction round trip")
	}
}
