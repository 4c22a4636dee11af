package storage

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"blend/internal/table"
)

// widerLake extends the Fig. 1 fixture with enough tables that a 4-way
// hash partition actually spreads.
func widerLake() []*table.Table {
	tables := lakeFixture()
	for i := 0; i < 8; i++ {
		t := table.New(fmt.Sprintf("W%d", i), "Team", "Metric")
		t.MustAppendRow("HR", fmt.Sprintf("%d", 10+i))
		t.MustAppendRow(fmt.Sprintf("Unit%d", i), fmt.Sprintf("%d", 20+i))
		t.MustAppendRow("Firenze", fmt.Sprintf("%d", 30+i))
		t.InferKinds()
		tables = append(tables, t)
	}
	return tables
}

// entryTuple is the location-independent content of one index entry.
type entryTuple struct {
	val      string
	tid, cid int32
	rid      int32
	lo, hi   uint64
	q        int8
}

// tableTuples decodes a table's entries through the per-entry accessors,
// sorted.
func tableTuples(r *ShardedStore, tid int32) []entryTuple {
	start, end := r.TableEntries(tid)
	out := make([]entryTuple, 0, end-start)
	for i := start; i < end; i++ {
		k := r.SuperKey(i)
		out = append(out, entryTuple{
			val: r.Value(i), tid: r.TableID(i), cid: r.ColumnID(i),
			rid: r.RowID(i), lo: k.Lo, hi: k.Hi, q: r.Quadrant(i),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].rid != out[b].rid {
			return out[a].rid < out[b].rid
		}
		return out[a].cid < out[b].cid
	})
	return out
}

// buildStore indexes tables into a single Store partition directly — the
// unpartitioned reference the sharded index must match.
func buildStore(tables []*table.Table) *Store {
	s := newStore()
	s.addTablesBatch(tables)
	return s
}

// TestShardedMatchesMonolithic checks a 4-shard index against the
// one-shard index of the same tables: global table ids, names, per-table
// entries, reconstruction, frequencies and postings must agree, even
// though global entry positions differ. The one-shard index in turn must
// match a single Store built straight from the tables entry for entry.
func TestShardedMatchesMonolithic(t *testing.T) {
	tables := widerLake()
	mono := Build(tables, 1)
	shard := Build(tables, 4)
	if shard.NumShards() != 4 {
		t.Fatalf("NumShards = %d", shard.NumShards())
	}
	if shard.NumEntries() != mono.NumEntries() {
		t.Fatalf("entries %d != %d", shard.NumEntries(), mono.NumEntries())
	}
	if shard.NumTables() != mono.NumTables() {
		t.Fatal("tables differ")
	}
	if shard.NumDistinctValues() != mono.NumDistinctValues() {
		t.Fatalf("distinct values %d != %d", shard.NumDistinctValues(), mono.NumDistinctValues())
	}
	for tid := int32(0); tid < int32(mono.NumTables()); tid++ {
		if shard.TableName(tid) != mono.TableName(tid) {
			t.Fatalf("table %d name %q != %q", tid, shard.TableName(tid), mono.TableName(tid))
		}
		if !reflect.DeepEqual(tableTuples(shard, tid), tableTuples(mono, tid)) {
			t.Fatalf("table %d entries differ", tid)
		}
		mt := mono.ReconstructTable(tid)
		st := shard.ReconstructTable(tid)
		if !reflect.DeepEqual(mt.Rows, st.Rows) {
			t.Fatalf("table %d reconstruction differs", tid)
		}
	}
	for _, name := range []string{"T1", "W3", "nope"} {
		if shard.TableIDByName(name) != mono.TableIDByName(name) {
			t.Fatalf("TableIDByName(%q) differs", name)
		}
	}
	for _, v := range []string{"HR", "Firenze", "Unit3", "missing"} {
		if shard.Frequency(v) != mono.Frequency(v) {
			t.Fatalf("Frequency(%q) %d != %d", v, shard.Frequency(v), mono.Frequency(v))
		}
		// Postings positions differ (global layouts differ) but must
		// decode to the same cell locations.
		decode := func(r *ShardedStore, ps []int32) []entryTuple {
			out := make([]entryTuple, 0, len(ps))
			for _, p := range ps {
				out = append(out, entryTuple{
					val: r.Value(p), tid: r.TableID(p),
					cid: r.ColumnID(p), rid: r.RowID(p),
				})
			}
			sort.Slice(out, func(a, b int) bool {
				if out[a].tid != out[b].tid {
					return out[a].tid < out[b].tid
				}
				if out[a].rid != out[b].rid {
					return out[a].rid < out[b].rid
				}
				return out[a].cid < out[b].cid
			})
			return out
		}
		if !reflect.DeepEqual(decode(shard, positions(t, shard, v)), decode(mono, positions(t, mono, v))) {
			t.Fatalf("Postings(%q) decode differently", v)
		}
	}
	if got, want := shard.AvgFrequency([]string{"HR", "Firenze"}), mono.AvgFrequency([]string{"HR", "Firenze"}); got != want {
		t.Fatalf("AvgFrequency %v != %v", got, want)
	}
	// One shard is the monolithic case: same entry positions as a Store.
	st := buildStore(tables)
	for i := int32(0); i < int32(st.NumEntries()); i++ {
		if mono.Value(i) != st.Value(i) || mono.TableID(i) != st.TableID(i) ||
			mono.RowID(i) != st.RowID(i) || mono.SuperKey(i) != st.SuperKey(i) {
			t.Fatalf("one-shard index diverges from the Store at entry %d", i)
		}
	}
}

func TestShardedGlobalPositionsConsistent(t *testing.T) {
	s := Build(widerLake(), 4)
	// Every global position must belong to exactly the table whose range
	// contains it, and postings must be sorted ascending.
	for tid := int32(0); tid < int32(s.NumTables()); tid++ {
		start, end := s.TableEntries(tid)
		for i := start; i < end; i++ {
			if s.TableID(i) != tid {
				t.Fatalf("entry %d in range of table %d reports table %d", i, tid, s.TableID(i))
			}
		}
	}
	p := positions(t, s, "HR")
	if len(p) != s.Frequency("HR") || !sort.SliceIsSorted(p, func(a, b int) bool { return p[a] < p[b] }) {
		t.Fatalf("merged postings %v: want all %d live HR entries, ascending", p, s.Frequency("HR"))
	}
	for _, e := range drain(t, s.Postings("HR"), true) {
		if s.TableID(e.pos) != e.tid || s.RowID(e.pos) != e.rid || s.SuperKey(e.pos) != e.super {
			t.Fatalf("cursor entry %+v disagrees with global position %d", e, e.pos)
		}
	}
}

// TestShardPostings checks the per-shard cursors the native executors
// scan: each reports global positions inside its own shard's range and
// global table ids of tables that shard owns, and together they yield
// every live posting exactly once.
func TestShardPostings(t *testing.T) {
	s := Build(widerLake(), 4)
	total := 0
	for i := range s.NumShards() {
		hr := drain(t, s.ShardPostings(i, "HR"), false)
		total += len(hr)
		for _, e := range hr {
			if e.pos < s.base[i] || e.pos >= s.base[i+1] {
				t.Fatalf("shard %d cursor entry %+v outside the shard's range [%d, %d)",
					i, e, s.base[i], s.base[i+1])
			}
			if s.TableID(e.pos) != e.tid || s.Value(e.pos) != "HR" {
				t.Fatalf("shard %d cursor entry %+v disagrees with its global position", i, e)
			}
			if s.refs[e.tid].shard != int32(i) {
				t.Fatalf("shard %d streams table %d owned by shard %d", i, e.tid, s.refs[e.tid].shard)
			}
		}
	}
	if total != s.Frequency("HR") {
		t.Fatalf("per-shard cursors yield %d postings, want %d", total, s.Frequency("HR"))
	}
	// A table's entries lie inside its owning shard's range.
	for tid := int32(0); tid < int32(s.NumTables()); tid++ {
		sh := s.refs[tid].shard
		if lo, hi := s.TableEntries(tid); lo < s.base[sh] || hi > s.base[sh+1] {
			t.Fatalf("table %d entries [%d, %d) outside shard %d", tid, lo, hi, sh)
		}
	}
}

func TestShardedPersistRoundTrip(t *testing.T) {
	orig := Build(widerLake(), 3)
	back := reopen(t, orig)
	if back.NumShards() != 3 {
		t.Fatalf("shard count = %d after round trip", back.NumShards())
	}
	if back.NumEntries() != orig.NumEntries() {
		t.Fatal("shape lost on round trip")
	}
	for tid := int32(0); tid < int32(orig.NumTables()); tid++ {
		if !reflect.DeepEqual(tableTuples(back, tid), tableTuples(orig, tid)) {
			t.Fatalf("table %d differs after round trip", tid)
		}
	}
	// Incremental maintenance after load: same hash routing, same global
	// ids.
	nt := table.New("postload", "A", "B")
	nt.MustAppendRow("zz-postload", "1")
	nt.InferKinds()
	origNext, ids1 := orig.CloneAddTablesBatch([]*table.Table{nt})
	backNext, ids2 := back.CloneAddTablesBatch([]*table.Table{nt})
	if ids1[0] != ids2[0] {
		t.Fatalf("add after load assigned id %d, fresh store %d", ids2[0], ids1[0])
	}
	if backNext.Frequency("zz-postload") != 1 {
		t.Fatal("value added after load not indexed")
	}
	if !reflect.DeepEqual(tableTuples(backNext, ids2[0]), tableTuples(origNext, ids1[0])) {
		t.Fatal("post-load add produced different entries")
	}
}

func TestShardedComputeStats(t *testing.T) {
	s := Build(widerLake(), 4)
	st := s.ComputeStats()
	if st.Shards != 4 {
		t.Fatalf("stats shards = %d", st.Shards)
	}
	if st.Tables != s.NumTables() || st.Entries != s.NumEntries() {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.DistinctValues != s.NumDistinctValues() {
		t.Fatal("distinct count mismatch")
	}
	if st.NumericCells == 0 || st.AvgPostingLength <= 0 {
		t.Fatalf("stats content: %+v", st)
	}
	mono := Build(widerLake(), 1).ComputeStats()
	if st.NumericCells != mono.NumericCells {
		t.Fatal("numeric cell count must not depend on partitioning")
	}
	if st.AvgColumnsPerTbl != mono.AvgColumnsPerTbl || st.AvgRowsPerTable != mono.AvgRowsPerTable {
		t.Fatal("table shape averages must not depend on partitioning")
	}
}

// TestBuildShardedClampsShardCount guards the Save/Load agreement: any
// shard count Build accepts must survive a round trip.
func TestBuildShardedClampsShardCount(t *testing.T) {
	s := Build(lakeFixture(), MaxShards+100)
	if s.NumShards() != MaxShards {
		t.Fatalf("NumShards = %d, want clamp to %d", s.NumShards(), MaxShards)
	}
	back := reopen(t, s)
	if back.NumShards() != MaxShards {
		t.Fatal("shard count lost on round trip")
	}
}
