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

	// Small batches: whole batches before the corrupt file commit, the
	// in-flight batch is discarded entirely — never a partial batch.
	d2 := seedDiscovery(t)
	report, err := d2.IngestCSVDir(context.Background(), dir, WithIngestBatchSize(2))
	if err == nil {
		t.Fatal("corrupt CSV must fail the ingest")
	}
	// Files sort ok00, ok01, ok01x-corrupt, …: exactly one 2-table batch
	// (ok00, ok01) commits before the failure.
	if report.TablesAdded != 2 || report.Batches != 1 {
		t.Fatalf("committed %d tables in %d batches, want one whole batch of 2",
			report.TablesAdded, report.Batches)
	}
	if d2.NumTables() != before+2 {
		t.Fatalf("index holds %d tables, want %d", d2.NumTables(), before+2)
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

func TestIngestCancellation(t *testing.T) {
	dir := t.TempDir()
	writeLakeDir(t, dir, "c", 6)

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

	// AddTables honors cancellation between batches with the same typed
	// error and whole-batch granularity.
	tables := make([]*Table, 4)
	for i := range tables {
		tables[i] = NewTable(fmt.Sprintf("ct%d", i), "a")
		tables[i].MustAppendRow("x")
	}
	d2 := seedDiscovery(t)
	ids, err := d2.AddTables(ctx, tables, WithIngestBatchSize(2))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("AddTables error = %v, want canceled", err)
	}
	if len(ids) != 0 {
		t.Fatal("canceled AddTables committed tables")
	}

	// Whatever the cancellation timing, only whole batches may land.
	for trial := 0; trial < 5; trial++ {
		d3 := seedDiscovery(t)
		tctx, tcancel := context.WithCancel(context.Background())
		go tcancel() // races the ingest
		report, _ := d3.IngestCSVDir(tctx, dir, WithIngestBatchSize(2))
		if report != nil && report.TablesAdded%2 != 0 {
			t.Fatalf("partial batch committed: %d tables", report.TablesAdded)
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
	if got := d.Compact(); got != 1 {
		t.Fatalf("Compact = %d", got)
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
