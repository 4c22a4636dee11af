package storage

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"blend/internal/datalake"
	"blend/internal/table"
)

// Tests for the copy-on-write write path and the table lifecycle:
// CloneAddTablesBatch, CloneRemoveTable tombstones, CloneCompact, and the
// v4 file that round-trips them.

// batchLake generates n small distinct tables for batch-ingest tests.
func batchLake(prefix string, n int) []*table.Table {
	out := make([]*table.Table, n)
	for i := range out {
		t := table.New(fmt.Sprintf("%s%02d", prefix, i), "Team", "Metric")
		t.MustAppendRow("HR", fmt.Sprintf("%d", 10+i))
		t.MustAppendRow(fmt.Sprintf("Unit%d", i), fmt.Sprintf("%d", 20+i))
		t.InferKinds()
		out[i] = t
	}
	return out
}

// storeTuples snapshots every live table's content.
func storeTuples(r *ShardedStore) map[string][]entryTuple {
	out := make(map[string][]entryTuple)
	for tid := 0; tid < r.NumTables(); tid++ {
		if !r.TableAlive(int32(tid)) {
			continue
		}
		out[r.TableName(int32(tid))] = tableTuples(r, int32(tid))
	}
	return out
}

// mustRemove tombstones tid copy-on-write, failing the test on error.
func mustRemove(t *testing.T, s *ShardedStore, tid int32) *ShardedStore {
	t.Helper()
	next, err := s.CloneRemoveTable(tid)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestAddTablesBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Column/shards=%d", shards), func(t *testing.T) {
			batch := batchLake("B", 9)
			seq := Build(lakeFixture(), shards)
			var seqIDs []int32
			for _, tb := range batch {
				var ids []int32
				seq, ids = seq.CloneAddTablesBatch([]*table.Table{tb})
				seqIDs = append(seqIDs, ids...)
			}
			bat, batIDs := Build(lakeFixture(), shards).CloneAddTablesBatch(batch)
			if !reflect.DeepEqual(seqIDs, batIDs) {
				t.Fatalf("batch ids %v != sequential ids %v", batIDs, seqIDs)
			}
			if seq.NumEntries() != bat.NumEntries() {
				t.Fatalf("entries: batch %d, sequential %d", bat.NumEntries(), seq.NumEntries())
			}
			if !reflect.DeepEqual(storeTuples(seq), storeTuples(bat)) {
				t.Fatal("batch-built store content differs from sequential")
			}
			// Posting lists agree for a shared value.
			if seq.Frequency("HR") != bat.Frequency("HR") {
				t.Fatal("frequency mismatch after batch insert")
			}
		})
	}
}

func TestRemoveTableHidesEveryReadSurface(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			orig := Build(widerLake(), shards)
			tid := orig.TableIDByName("T2")
			if tid < 0 {
				t.Fatal("fixture table missing")
			}
			beforeFreq := orig.Frequency("Firenze")
			s := mustRemove(t, orig, tid)
			if !orig.TableAlive(tid) {
				t.Fatal("removal leaked into the parent index")
			}
			if s.TableAlive(tid) {
				t.Fatal("removed table still alive")
			}
			if s.Tombstones() != 1 {
				t.Fatalf("tombstones = %d", s.Tombstones())
			}
			if s.TableName(tid) != "" {
				t.Fatal("removed table still resolves by id")
			}
			if s.TableIDByName("T2") != -1 {
				t.Fatal("removed table still resolves by name")
			}
			if lo, hi := s.TableEntries(tid); lo != hi {
				t.Fatal("removed table still has an entry range")
			}
			if s.ReconstructTable(tid) != nil {
				t.Fatal("removed table still reconstructs")
			}
			// "Firenze" appears once in T2: frequency and postings drop it.
			if got := s.Frequency("Firenze"); got != beforeFreq-1 {
				t.Fatalf("Frequency after remove = %d, want %d", got, beforeFreq-1)
			}
			entries := drain(t, s.Postings("Firenze"), false)
			if len(entries) != beforeFreq-1 {
				t.Fatalf("cursor yields %d entries after remove, want %d", len(entries), beforeFreq-1)
			}
			for _, e := range entries {
				if e.tid == tid || s.TableID(e.pos) == tid {
					t.Fatal("postings still reference the removed table")
				}
			}
			for i := range s.NumShards() {
				for _, e := range drain(t, s.ShardPostings(i, "Firenze"), false) {
					if e.tid == tid {
						t.Fatalf("shard %d still streams the removed table", i)
					}
				}
			}
			// Double removal and out-of-range ids are typed errors.
			if _, err := s.CloneRemoveTable(tid); err == nil {
				t.Fatal("double remove must fail")
			}
			if _, err := s.CloneRemoveTable(9999); err == nil {
				t.Fatal("out-of-range remove must fail")
			}
		})
	}
}

func TestCompactReclaimsAndRenumbers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Column/shards=%d", shards), func(t *testing.T) {
			orig := Build(widerLake(), shards)
			totalBefore := orig.NumTables()
			entriesBefore := orig.NumEntries()
			victim := orig.TableIDByName("T1")
			want := storeTuples(orig) // snapshot, then forget the victim
			victimEntries := len(want["T1"])
			delete(want, "T1")
			s, removed := mustRemove(t, orig, victim).CloneCompact()
			if removed != 1 {
				t.Fatalf("CloneCompact removed %d tables, want 1", removed)
			}
			if s.Tombstones() != 0 {
				t.Fatal("tombstones survive compaction")
			}
			if s.NumTables() != totalBefore-1 {
				t.Fatalf("NumTables = %d after compact", s.NumTables())
			}
			if s.NumEntries() != entriesBefore-victimEntries {
				t.Fatalf("NumEntries = %d after compact, want %d",
					s.NumEntries(), entriesBefore-victimEntries)
			}
			if s.NumShards() != shards {
				t.Fatal("compaction changed the shard count")
			}
			got := storeTuples(s)
			// Ids were renumbered, so compare per-name content with the
			// table-id field normalized out.
			if len(got) != len(want) {
				t.Fatalf("compacted store holds %d tables, want %d", len(got), len(want))
			}
			for name, wtuples := range want {
				gtuples := got[name]
				if len(gtuples) != len(wtuples) {
					t.Fatalf("table %q has %d entries after compact, want %d", name, len(gtuples), len(wtuples))
				}
				for i := range wtuples {
					w, g := wtuples[i], gtuples[i]
					w.tid, g.tid = 0, 0
					if w != g {
						t.Fatalf("table %q entry %d differs after compact: %+v vs %+v", name, i, g, w)
					}
				}
			}
			// Compacting a clean store is a no-op that returns the receiver.
			if again, n := s.CloneCompact(); n != 0 || again != s {
				t.Fatal("second compact must remove nothing")
			}
		})
	}
}

// TestPersistRoundTripsTombstones saves and reloads removed tables. The
// last input removes tables from two shards (W3 hashes to shard 1 of 3, W5
// to shard 0), so the writer splits the global bitmap into per-shard local
// ids and the reader maps them back.
func TestPersistRoundTripsTombstones(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		victims []string
	}{
		{"shards=1", 1, []string{"W3"}},
		{"shards=3", 3, []string{"W3"}},
		{"shards=3,two-shard-victims", 3, []string{"W3", "W5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := Build(widerLake(), tc.shards)
			var victims []int32
			for _, name := range tc.victims {
				victim := orig.TableIDByName(name)
				victims = append(victims, victim)
				orig = mustRemove(t, orig, victim)
			}
			if len(victims) == 2 && orig.refs[victims[0]].shard == orig.refs[victims[1]].shard {
				t.Fatal("the victims share a shard; the test no longer splits the bitmap")
			}
			loaded := reopen(t, orig)
			if loaded.Tombstones() != len(victims) {
				t.Fatalf("loaded tombstones = %d, want %d", loaded.Tombstones(), len(victims))
			}
			for i, victim := range victims {
				if loaded.TableAlive(victim) {
					t.Fatalf("tombstone of %s lost in round trip", tc.victims[i])
				}
				if loaded.TableIDByName(tc.victims[i]) != -1 {
					t.Fatalf("removed table %s resolves after reload", tc.victims[i])
				}
			}
			if !reflect.DeepEqual(storeTuples(orig), storeTuples(loaded)) {
				t.Fatal("live content differs after round trip")
			}
			// Compaction after reload fully reclaims.
			compacted, removed := loaded.CloneCompact()
			if removed != len(victims) {
				t.Fatal("post-load compact must reclaim every tombstone")
			}
			if compacted.TableIDByName("W2") < 0 {
				t.Fatal("live table lost after post-load compact")
			}
		})
	}
}

func TestAddAfterRemoveKeepsIdsDisjoint(t *testing.T) {
	base := Build(lakeFixture(), 2)
	s, ids := mustRemove(t, base, base.TableIDByName("T1")).CloneAddTablesBatch(batchLake("N", 3))
	for _, id := range ids {
		if !s.TableAlive(id) {
			t.Fatalf("new table %d not alive", id)
		}
	}
	// The tombstoned slot is not reused before compaction.
	if s.NumTables() != 4+3 {
		t.Fatalf("NumTables = %d, want 7 (4 original + 3 new)", s.NumTables())
	}
	if s.Tombstones() != 1 {
		t.Fatal("tombstone lost by batch insert")
	}
}

// TestPublishAfterAbandonedClone derives a clone, drops it, and derives a
// second one from the same parent: the engine's path when a journal append
// fails after the clone was made. Appends fill the parent's spare
// capacity, so the second clone writes the same backing slots again; the
// parent must still read as before and the second clone as if the first
// had never existed. One shard puts both batches in the same arrays.
func TestPublishAfterAbandonedClone(t *testing.T) {
	parent := Build(lakeFixture(), 1)
	// One publish first, so the parent carries spare capacity.
	parent, _ = parent.CloneAddTablesBatch(batchLake("P", 1))
	want := storeTuples(parent)
	hr := parent.Frequency("HR")

	abandoned, _ := parent.CloneAddTablesBatch(batchLake("A", 1))
	if abandoned.Frequency("HR") != hr+1 {
		t.Fatalf("abandoned clone: HR frequency %d, want %d", abandoned.Frequency("HR"), hr+1)
	}
	next, ids := parent.CloneAddTablesBatch(batchLake("B", 1))
	n := len(parent.shards[0].valIdx)
	if &abandoned.shards[0].valIdx[n] != &next.shards[0].valIdx[n] {
		t.Fatal("the clones do not share the parent's spare capacity; the test no longer covers a rewrite")
	}

	if !reflect.DeepEqual(storeTuples(parent), want) || parent.Frequency("HR") != hr {
		t.Fatal("parent changed under a later clone")
	}
	fresh, freshIDs := Build(lakeFixture(), 1).CloneAddTablesBatch(append(batchLake("P", 1), batchLake("B", 1)...))
	if !reflect.DeepEqual(ids, freshIDs[1:]) {
		t.Fatalf("second clone ids %v, want %v", ids, freshIDs[1:])
	}
	if !reflect.DeepEqual(storeTuples(next), storeTuples(fresh)) {
		t.Fatal("second clone differs from a store that never saw the abandoned one")
	}
	if next.Frequency("HR") != fresh.Frequency("HR") || next.TableIDByName("A00") != -1 {
		t.Fatal("second clone sees the abandoned clone's tables")
	}
}

// publishBytes builds a 4-shard index over n generated tables, then
// publishes n more one table at a time, each clone derived from the last as
// the engine's writer does. It returns the bytes allocated per publish.
// The tables are wide and draw from a fixed 500-string vocabulary, so a
// shard's entry count doubles with n while its dictionary grows little:
// every clone still copies the postings spine and the dictionary delta,
// which scale with a shard's distinct values, not with its entries.
func publishBytes(n int) float64 {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "pub", NumTables: 2 * n, ColsPerTable: 10, RowsPerTable: 200, VocabSize: 500, Seed: 1,
	})
	s := Build(lake.Tables[:n], 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, tb := range lake.Tables[n:] {
		s, _ = s.CloneAddTablesBatch([]*table.Table{tb})
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPublishAllocationFlat checks that a one-table publish allocates about
// the same on a lake twice the size: the attribute arrays grow by half
// their capacity, not to the exact need of each publish, which copied
// every array of the shard once per publish (1.97x here).
func TestPublishAllocationFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and grows two generated lakes")
	}
	small, large := publishBytes(40), publishBytes(80)
	t.Logf("per one-table publish: %.0f KB at 40 tables, %.0f KB at 80", small/1024, large/1024)
	if large > 1.5*small {
		t.Fatalf("a publish on the 2x lake allocates %.2fx as much (%.0f vs %.0f bytes), want at most 1.5x",
			large/small, large, small)
	}
}

// TestRemoveTableClonesNoShard checks that a remove shares every shard
// with its parent and allocates only the tombstone bitmap and the index
// header. On a 4-shard lake of 200 tables over an 8,000-string vocabulary
// a remove that copy-on-writes its shard (postings spine and dictionary
// delta) allocates well over 100 KB.
func TestRemoveTableClonesNoShard(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "rm", NumTables: 200, ColsPerTable: 5, RowsPerTable: 200, VocabSize: 8000, Seed: 1,
	})
	s := Build(lake.Tables[:180], 4)
	for _, tb := range lake.Tables[180:] {
		s, _ = s.CloneAddTablesBatch([]*table.Table{tb})
	}
	next := mustRemove(t, s, 0)
	for i := range s.shards {
		if next.shards[i] != s.shards[i] {
			t.Fatalf("remove replaced shard %d; every shard must stay the parent's", i)
		}
	}

	const removes = 20
	const bound = 4 << 10 // bytes per remove: the 200-byte bitmap plus headers
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for tid := int32(1); tid <= removes; tid++ {
		var err error
		if next, err = next.CloneRemoveTable(tid); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRemove := float64(after.TotalAlloc-before.TotalAlloc) / removes
	t.Logf("per remove: %.0f bytes allocated (bound %d)", perRemove, bound)
	if perRemove > bound {
		t.Fatalf("a remove allocates %.0f bytes, want at most %d", perRemove, bound)
	}
}
