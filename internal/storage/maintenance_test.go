package storage

import (
	"fmt"
	"reflect"
	"testing"

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

func TestPersistRoundTripsTombstones(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := Build(widerLake(), shards)
			victim := base.TableIDByName("W3")
			orig := mustRemove(t, base, victim)
			loaded := reopen(t, orig)
			if loaded.Tombstones() != 1 {
				t.Fatalf("loaded tombstones = %d, want 1", loaded.Tombstones())
			}
			if loaded.TableAlive(victim) {
				t.Fatal("tombstone lost in round trip")
			}
			if loaded.TableIDByName("W3") != -1 {
				t.Fatal("removed table resolves after reload")
			}
			if !reflect.DeepEqual(storeTuples(orig), storeTuples(loaded)) {
				t.Fatal("live content differs after round trip")
			}
			// Compaction after reload fully reclaims.
			compacted, removed := loaded.CloneCompact()
			if removed != 1 {
				t.Fatal("post-load compact must reclaim the tombstone")
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
