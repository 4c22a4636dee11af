package storage

// Tests for the segmented v4 persistence format and its memory-mapped
// lazy-load path: differential mapped-vs-built coverage across shard
// counts, residency accounting, committed v4 files from earlier releases,
// property-based round trips, maintenance ops on mapped stores, and the
// footer-directory inspection API.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"blend/internal/datalake"
	"blend/internal/table"
)

// saveTemp persists an index to a fresh file under t.TempDir.
func saveTemp(t *testing.T, s *ShardedStore, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// reopen round-trips s through a temp file and MapFile; the mapping is
// released when the test ends.
func reopen(t *testing.T, s *ShardedStore) *ShardedStore {
	t.Helper()
	back, err := MapFile(saveTemp(t, s, "reopen.blend"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	return back
}

// readerProbe compares the cheap whole-index read surfaces of two stores.
func readerProbe(t *testing.T, want, got *ShardedStore, label string) {
	t.Helper()
	if want.NumEntries() != got.NumEntries() || want.NumTables() != got.NumTables() {
		t.Fatalf("%s: shape mismatch: entries %d/%d tables %d/%d", label,
			want.NumEntries(), got.NumEntries(), want.NumTables(), got.NumTables())
	}
	if want.NumDistinctValues() != got.NumDistinctValues() {
		t.Fatalf("%s: distinct values %d vs %d", label,
			want.NumDistinctValues(), got.NumDistinctValues())
	}
	for _, v := range []string{"HR", "Firenze", "no-such-value"} {
		if want.Frequency(v) != got.Frequency(v) {
			t.Fatalf("%s: Frequency(%q) %d vs %d", label, v, want.Frequency(v), got.Frequency(v))
		}
		if !reflect.DeepEqual(drain(t, want.Postings(v), true), drain(t, got.Postings(v), true)) {
			t.Fatalf("%s: Postings(%q) diverge", label, v)
		}
	}
	for tid := int32(0); tid < int32(want.NumTables()); tid++ {
		name := want.TableName(tid)
		if got.TableIDByName(name) != want.TableIDByName(name) {
			t.Fatalf("%s: TableIDByName(%q) %d vs %d", label, name,
				want.TableIDByName(name), got.TableIDByName(name))
		}
	}
	if !reflect.DeepEqual(storeTuples(want), storeTuples(got)) {
		t.Fatalf("%s: table contents diverge", label)
	}
}

// TestMapFileMatchesBuild is the core differential: a v4 file read back
// lazily (MapFile) must expose the content of the built store that saved
// it through every read surface, across shard counts.
func TestMapFileMatchesBuild(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Column/shards=%d", shards), func(t *testing.T) {
			orig := Build(widerLake(), shards)
			mapped, err := MapFile(saveTemp(t, orig, "lake.blend"))
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			readerProbe(t, orig, mapped, "mapped")
		})
	}
}

// TestMapFileMonolithicKind round-trips a one-shard index through the
// mapped path: it is written as the monolithic kind, and a re-save keeps
// that kind.
func TestMapFileMonolithicKind(t *testing.T) {
	orig := Build(lakeFixture(), 1)
	path := saveTemp(t, orig, "mono.blend")
	if info, err := InspectFile(path); err != nil || info.Kind != "monolithic" {
		t.Fatalf("one-shard index saved as %+v (%v), want the monolithic kind", info, err)
	}
	mapped, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	readerProbe(t, orig, mapped, "mapped-mono")
	var buf bytes.Buffer
	if err := mapped.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if kind := buf.Bytes()[8]; kind != persistKindMonolithic {
		t.Fatalf("re-saved one-shard index has kind %d, want monolithic", kind)
	}
	readerProbe(t, orig, reopen(t, mapped), "resaved")
}

// fixtureLake is the lake behind the committed v4 files in testdata/:
// kind0.blend is it saved as one monolithic store; kind1.blend is it
// saved with 3 shards after tombstoning fixtureVictim. Both files were
// written by an earlier release, so they pin that files users already
// have keep opening and answering identically, and that the writer's
// bytes do not drift.
func fixtureLake() []*table.Table {
	return datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "fx", NumTables: 10, ColsPerTable: 3, RowsPerTable: 12,
		VocabSize: 60, Seed: 22,
	}).Tables
}

const fixtureVictim = "fx_t0004"

func TestV4FixturesStillOpen(t *testing.T) {
	lake := fixtureLake()
	sharded := Build(lake, 3)
	withTombstone, err := sharded.CloneRemoveTable(sharded.TableIDByName(fixtureVictim))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file string
		want *ShardedStore
	}{
		{"kind0.blend", Build(lake, 1)},
		{"kind1.blend", withTombstone},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", tc.file)
		// The writer must still produce exactly these bytes.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tc.want.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("%s: saving the same index no longer reproduces the file byte for byte", tc.file)
		}
		mapped, err := MapFile(path)
		if err != nil {
			t.Fatalf("%s: MapFile: %v", tc.file, err)
		}
		readerProbe(t, tc.want, mapped, tc.file+" mapped")
		if mapped.NumShards() != tc.want.NumShards() || mapped.Tombstones() != tc.want.Tombstones() {
			t.Fatalf("%s: shards/tombstones %d/%d, want %d/%d", tc.file,
				mapped.NumShards(), mapped.Tombstones(), tc.want.NumShards(), tc.want.Tombstones())
		}
		mapped.Close()
	}
}

// TestMapFileLazyResidency checks the laziness contract: opening touches
// no shard, a hash-routed name lookup touches exactly one, and a full
// content scan makes everything resident.
func TestMapFileLazyResidency(t *testing.T) {
	orig := Build(widerLake(), 4)
	path := saveTemp(t, orig, "lazy.blend")
	s, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.ResidentShards(); got != 0 {
		t.Fatalf("ResidentShards after open = %d, want 0", got)
	}
	if s.MappedBytes() <= 0 {
		t.Fatalf("MappedBytes = %d, want > 0", s.MappedBytes())
	}
	// Footer-backed surfaces must not force materialization.
	if s.NumEntries() != orig.NumEntries() || s.NumTables() != orig.NumTables() ||
		s.Tombstones() != 0 || !s.TableAlive(0) {
		t.Fatal("footer-backed shape surfaces diverge")
	}
	if got := s.ResidentShards(); got != 0 {
		t.Fatalf("ResidentShards after shape reads = %d, want 0", got)
	}
	if s.TableIDByName(orig.TableName(0)) != 0 {
		t.Fatal("TableIDByName lookup failed on mapped store")
	}
	if got := s.ResidentShards(); got != 1 {
		t.Fatalf("ResidentShards after one name lookup = %d, want 1", got)
	}
	storeTuples(s) // full scan
	if got := s.ResidentShards(); got != s.NumShards() {
		t.Fatalf("ResidentShards after full scan = %d, want %d", got, s.NumShards())
	}
	stats := s.ComputeStats()
	if stats.ResidentShards != s.NumShards() || stats.MappedBytes != s.MappedBytes() {
		t.Fatalf("stats residency = %+v", stats)
	}
}

// TestSegmentedQuickRoundTrip property-tests the v4 writer/reader pair
// against random cell content.
func TestSegmentedQuickRoundTrip(t *testing.T) {
	f := func(cells [][2]string) bool {
		tb := table.New("q", "a", "b")
		for _, c := range cells {
			tb.MustAppendRow(c[0], c[1])
		}
		tb.InferKinds()
		orig := Build([]*table.Table{tb}, 2)
		return reflect.DeepEqual(storeTuples(orig), storeTuples(reopen(t, orig)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintenanceOnMappedStore runs every mutating op against a lazily
// mapped store and the built store it was saved from; the two must stay
// indistinguishable through add, remove, compact, and a save/reload.
func TestMaintenanceOnMappedStore(t *testing.T) {
	built := Build(batchLake("M", 12), 4)
	mapped, err := MapFile(saveTemp(t, built, "maint.blend"))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	check := func(step string) {
		t.Helper()
		if !reflect.DeepEqual(storeTuples(built), storeTuples(mapped)) {
			t.Fatalf("after %s: mapped store diverged from the built one", step)
		}
		if built.Tombstones() != mapped.Tombstones() {
			t.Fatalf("after %s: tombstones %d vs %d", step, built.Tombstones(), mapped.Tombstones())
		}
	}

	extra := batchLake("N", 5)
	built, _ = built.CloneAddTablesBatch(extra)
	mapped, _ = mapped.CloneAddTablesBatch(extra)
	check("CloneAddTablesBatch")

	victim := mapped.TableIDByName("M03")
	if victim < 0 {
		t.Fatal("victim table missing")
	}
	built = mustRemove(t, built, victim)
	mapped = mustRemove(t, mapped, victim)
	check("CloneRemoveTable")

	var e, m int
	built, e = built.CloneCompact()
	mapped, m = mapped.CloneCompact()
	if e != m {
		t.Fatalf("CloneCompact removed %d vs %d", e, m)
	}
	check("CloneCompact")

	if !reflect.DeepEqual(storeTuples(built), storeTuples(reopen(t, mapped))) {
		t.Fatal("mapped store save/reload diverged")
	}
}

// TestSaveOverOwnMapping overwrites the file backing a lazily mapped
// store with that store's own SaveFile — the CLI's open → append → save
// in-place flow. The save must not read torn pages from its own mapping
// (saveFile writes a temp file and renames), and both the live store and
// a fresh open of the path must see the appended state.
func TestSaveOverOwnMapping(t *testing.T) {
	orig := Build(batchLake("S", 8), 4)
	path := saveTemp(t, orig, "self.blend")
	idx, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	s, _ := idx.CloneAddTablesBatch(batchLake("T", 4))
	if err := s.SaveFile(path); err != nil { // no shard is resident yet beyond the touched ones
		t.Fatal(err)
	}
	if s.TableIDByName("T02") < 0 {
		t.Fatal("appended table missing from live store after save")
	}
	back, err := MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !reflect.DeepEqual(storeTuples(s), storeTuples(back)) {
		t.Fatal("reopened file diverges from the store that saved it")
	}
	if back.NumTables() != 12 {
		t.Fatalf("reopened tables = %d, want 12", back.NumTables())
	}
}

// TestInspectFile checks the footer-directory inspection API against the
// store that wrote the file.
func TestInspectFile(t *testing.T) {
	orig := mustRemove(t, Build(widerLake(), 4), 1)
	path := saveTemp(t, orig, "inspect.blend")
	info, err := InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.FileBytes != st.Size() {
		t.Fatalf("FileBytes = %d, stat = %d", info.FileBytes, st.Size())
	}
	if info.Tables != orig.NumTables() || info.Entries != int64(orig.NumEntries()) || info.Tombstones != 1 {
		t.Fatalf("shape = %+v", info)
	}
	if len(info.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(info.Shards))
	}
	if info.FooterOff <= 0 || info.FooterOff >= info.FileBytes {
		t.Fatalf("footer offset %d out of file [0, %d)", info.FooterOff, info.FileBytes)
	}
	var entries int64
	for si, sh := range info.Shards {
		entries += int64(sh.Entries)
		for _, sec := range sh.Sections {
			if sec.Off < 0 || sec.Off+sec.Bytes > info.FileBytes {
				t.Fatalf("shard %d section %s out of bounds: %+v", si, sec.Name, sec)
			}
		}
	}
	if entries != info.Entries {
		t.Fatalf("per-shard entries sum %d != %d", entries, info.Entries)
	}
	if info.EntryBytes() <= 0 || info.EntryBytes() >= info.RawEntryBytes() {
		t.Fatalf("entry bytes %d not compressed below raw %d", info.EntryBytes(), info.RawEntryBytes())
	}
}
