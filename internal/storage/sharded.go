package storage

import (
	"hash/fnv"
	"sort"

	"blend/internal/table"
	"blend/internal/xash"
)

// ShardedStore hash-partitions the AllTables relation across N shards, one
// Store per shard, each with its own dictionary, inverted index, and
// table-range index; N = 1 is the monolithic case. It is the whole index:
// the read surface, copy-on-write maintenance (cow.go) and persistence
// (persist.go). Tables are assigned whole to a shard by a hash of their
// name, so every per-table aggregate a seeker computes (GROUP BY TableId,
// joins on TableId/RowId) is shard-local and the native executors can scan
// every shard concurrently (ShardPostings) and merge top-k.
//
// The ShardedStore presents the unified global view: entry positions are
// globally contiguous (shard s occupies [base[s], base[s+1])) and table
// ids are assigned in insertion order across the whole lake, so SQL and
// the native executors behave identically regardless of partitioning.
//
// Removed tables are tombstoned in one bitmap over global ids, the only
// tombstone state in the index: the shards never change in place, a
// removed table keeps its entries and its id until compaction, and every
// read surface tests the bitmap by global id.
type ShardedStore struct {
	shards []*Store

	// refs maps global table id -> owning shard and shard-local table id.
	refs []shardRef
	// globalTID maps, per shard, local table id -> global table id.
	globalTID [][]int32
	// base[s] is the global entry offset of shard s; base has one extra
	// trailing element holding the total entry count.
	base []int32

	// dead marks tombstoned tables by global id; len(dead) == len(refs).
	dead    []bool
	numDead int
}

type shardRef struct {
	shard int32
	local int32
}

// MaxShards caps the partition count, so every index Build can produce is
// also one LoadFile accepts (the reader rejects counts above this as
// corruption).
const MaxShards = 1 << 12

// Build indexes the tables into n hash-partitioned shards (the offline
// phase, Fig. 2e): one addTablesBatch into empty shards, the same insert
// routine every later batch takes. n is clamped to [1, MaxShards]; n = 1
// is the monolithic index.
func Build(tables []*table.Table, n int) *ShardedStore {
	n = max(1, min(n, MaxShards))
	s := &ShardedStore{
		shards:    make([]*Store, n),
		globalTID: make([][]int32, n),
	}
	for i := range s.shards {
		s.shards[i] = newStore()
	}
	s.addTablesBatch(tables)
	return s
}

// shardFor picks the shard owning a table name (FNV-1a modulo shard count).
func (s *ShardedStore) shardFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// recomputeBase refreshes the global entry offsets after shard growth.
func (s *ShardedStore) recomputeBase() {
	s.base = make([]int32, len(s.shards)+1)
	for i, sh := range s.shards {
		s.base[i+1] = s.base[i] + int32(sh.NumEntries())
	}
}

// locate maps a global entry position to (shard, local position).
func (s *ShardedStore) locate(i int32) (int, int32) {
	// sort.Search finds the first shard whose range ends beyond i.
	sh := sort.Search(len(s.shards), func(k int) bool { return s.base[k+1] > i })
	return sh, i - s.base[sh]
}

// NumShards reports the partition count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// NumEntries reports the total AllTables tuples across shards.
func (s *ShardedStore) NumEntries() int { return int(s.base[len(s.shards)]) }

// NumTables reports the number of indexed tables across shards.
func (s *ShardedStore) NumTables() int { return len(s.refs) }

// NumDistinctValues reports the number of distinct cell values across the
// whole lake. Dictionaries are per-shard, so this deduplicates across them;
// it is an O(dictionary) scan meant for stats, not hot paths.
func (s *ShardedStore) NumDistinctValues() int {
	if len(s.shards) == 1 {
		return len(s.shards[0].dict)
	}
	seen := make(map[string]struct{})
	for _, sh := range s.shards {
		for _, v := range sh.dict {
			seen[v] = struct{}{}
		}
	}
	return len(seen)
}

// TableMeta returns catalog information for a global table id.
func (s *ShardedStore) TableMeta(tid int32) TableMeta {
	r := s.refs[tid]
	return s.shards[r.shard].TableMeta(r.local)
}

// TableName returns the name of a global table id, or "" if out of range
// or tombstoned.
func (s *ShardedStore) TableName(tid int32) string {
	if !s.TableAlive(tid) {
		return ""
	}
	return s.TableMeta(tid).Name
}

// TableIDByName returns the global id of the named live table, or -1.
// Tables are assigned whole to the shard hashing their name, so only that
// shard needs to be consulted.
func (s *ShardedStore) TableIDByName(name string) int32 {
	sh := s.shardFor(name)
	for local, m := range s.shards[sh].tables {
		if g := s.globalTID[sh][local]; m.Name == name && !s.dead[g] {
			return g
		}
	}
	return -1
}

// TableAlive reports whether a global table id is allocated and not
// tombstoned.
func (s *ShardedStore) TableAlive(tid int32) bool {
	return tid >= 0 && int(tid) < len(s.dead) && !s.dead[tid]
}

// Tombstones reports the number of removed-but-not-compacted tables.
func (s *ShardedStore) Tombstones() int { return s.numDead }

// Value returns the CellValue of global entry i.
func (s *ShardedStore) Value(i int32) string {
	sh, l := s.locate(i)
	return s.shards[sh].Value(l)
}

// TableID returns the global TableId of entry i.
func (s *ShardedStore) TableID(i int32) int32 {
	sh, l := s.locate(i)
	return s.globalTID[sh][s.shards[sh].TableID(l)]
}

// ColumnID returns the ColumnId of global entry i.
func (s *ShardedStore) ColumnID(i int32) int32 {
	sh, l := s.locate(i)
	return s.shards[sh].ColumnID(l)
}

// RowID returns the RowId of global entry i.
func (s *ShardedStore) RowID(i int32) int32 {
	sh, l := s.locate(i)
	return s.shards[sh].RowID(l)
}

// SuperKey returns the XASH super key of global entry i's row.
func (s *ShardedStore) SuperKey(i int32) xash.Key {
	sh, l := s.locate(i)
	return s.shards[sh].SuperKey(l)
}

// Quadrant returns the quadrant bit of global entry i.
func (s *ShardedStore) Quadrant(i int32) int8 {
	sh, l := s.locate(i)
	return s.shards[sh].Quadrant(l)
}

// Postings returns a cursor over the live entries holding value v across
// every shard in shard order, with global positions and table ids — the
// inverted index on CellValue, read block by block.
func (s *ShardedStore) Postings(v string) PostingCursor {
	return PostingCursor{s: s, value: v, end: len(s.shards)}
}

// ShardPostings is Postings restricted to shard i: the live entries of
// that shard holding value v, still with global positions and table ids.
// The native executors scan one shard per goroutine through it.
func (s *ShardedStore) ShardPostings(i int, v string) PostingCursor {
	return PostingCursor{s: s, value: v, next: i, end: i + 1}
}

// ScanPostings streams the (TableId, ColumnId, RowId) attributes of every
// live entry holding value v, in ascending global position order: a loop
// over Postings for callers that want one callback per entry.
func (s *ShardedStore) ScanPostings(v string, fn func(tid, cid, rid int32)) {
	var blk PostingBlock
	cur := s.Postings(v)
	for cur.Next(&blk, false) {
		for i := range blk.N {
			fn(blk.TID[i], blk.CID[i], blk.RID[i])
		}
	}
}

// ScanTableNumeric streams the numeric cells of global table tid with
// RowId < maxRow; a tombstoned table streams nothing. Tables live whole on
// one shard, so the call delegates to the owning shard with the local id.
func (s *ShardedStore) ScanTableNumeric(tid, maxRow int32, fn func(cid, rid int32, q int8)) {
	if !s.TableAlive(tid) {
		return
	}
	r := s.refs[tid]
	s.shards[r.shard].ScanTableNumeric(r.local, maxRow, fn)
}

// Frequency returns the number of live index entries holding value v.
func (s *ShardedStore) Frequency(v string) int {
	total := 0
	for i, sh := range s.shards {
		list := sh.postingList(v)
		if s.numDead == 0 {
			total += len(list)
			continue
		}
		gtid := s.globalTID[i]
		for _, p := range list {
			if !s.dead[gtid[sh.tableIDs[p]]] {
				total++
			}
		}
	}
	return total
}

// AvgFrequency returns the mean index frequency of the given values — the
// statistic the optimizer's within-kind work estimate uses (§VII-B).
func (s *ShardedStore) AvgFrequency(values []string) float64 {
	if len(values) == 0 {
		return 0
	}
	total := 0
	for _, v := range values {
		total += s.Frequency(v)
	}
	return float64(total) / float64(len(values))
}

// TableEntries returns the global [start, end) entry range of a table id
// (the in-DB index on TableId); a tombstoned table yields the empty range.
func (s *ShardedStore) TableEntries(tid int32) (start, end int32) {
	if s.dead[tid] {
		return 0, 0
	}
	r := s.refs[tid]
	lr := s.shards[r.shard].tableRange[r.local]
	return lr[0] + s.base[r.shard], lr[1] + s.base[r.shard]
}

// ReconstructRow materializes row rid of global table tid; a tombstoned
// table yields a row of nulls.
func (s *ShardedStore) ReconstructRow(tid, rid int32) []string {
	r := s.refs[tid]
	sh := s.shards[r.shard]
	if s.dead[tid] {
		return make([]string, len(sh.tables[r.local].ColNames))
	}
	return sh.ReconstructRow(r.local, rid)
}

// ReconstructTable materializes a full table from the index, or nil when
// the table is tombstoned.
func (s *ShardedStore) ReconstructTable(tid int32) *table.Table {
	if s.dead[tid] {
		return nil
	}
	r := s.refs[tid]
	return s.shards[r.shard].ReconstructTable(r.local)
}

// SizeBytes sums the heap sizes of the shards.
func (s *ShardedStore) SizeBytes() int64 {
	var b int64
	for _, sh := range s.shards {
		b += sh.SizeBytes()
	}
	return b
}

// ComputeStats scans the index once and returns its summary. The
// posting-length figures are computed over per-shard dictionaries (a value
// split across shards counts once per shard), which is what the scan cost
// of a sharded seeker actually depends on; they include tombstoned tables,
// which hold their entries until compaction.
func (s *ShardedStore) ComputeStats() Stats {
	st := Stats{
		Shards:         len(s.shards),
		Tables:         s.NumTables() - s.numDead,
		Tombstones:     s.numDead,
		Entries:        s.NumEntries(),
		EstimatedBytes: s.SizeBytes(),
		ResidentShards: len(s.shards),
		DistinctValues: s.NumDistinctValues(),
	}
	dictEntries := 0
	for _, sh := range s.shards {
		dictEntries += len(sh.dict)
		for _, v := range sh.dict {
			st.DictBytes += int64(len(v))
		}
		for _, p := range sh.postings {
			st.MaxPostingLength = max(st.MaxPostingLength, len(p))
		}
		for _, q := range sh.quadrant {
			if q != QuadrantNull {
				st.NumericCells++
			}
		}
	}
	if dictEntries > 0 {
		st.AvgPostingLength = float64(st.Entries) / float64(dictEntries)
	}
	var cols, rows int
	for g, r := range s.refs {
		if s.dead[g] {
			continue
		}
		m := &s.shards[r.shard].tables[r.local]
		cols += len(m.ColNames)
		rows += int(m.NumRows)
	}
	if st.Tables > 0 {
		st.AvgColumnsPerTbl = float64(cols) / float64(st.Tables)
		st.AvgRowsPerTable = float64(rows) / float64(st.Tables)
	}
	return st
}

// addTablesBatch appends a batch of tables in place, assigning global ids
// in input order: tables are grouped by their hash shard, and each shard's
// group is appended in one Store.addTablesBatch. The global directory and
// entry offsets are refreshed once for the whole batch. The shards are
// filled one after another: filling them on concurrent goroutines built
// the bench lake (300 tables, 4 shards, 2 cores) no faster, and left a
// store that answered the sql_adhoc workload about 10 % slower. Build and
// every published batch take this routine. Not safe for use concurrent
// with readers: CloneAddTablesBatch is the public path.
func (s *ShardedStore) addTablesBatch(tables []*table.Table) []int32 {
	ids := make([]int32, len(tables))
	perShard := make([][]*table.Table, len(s.shards))
	for i, t := range tables {
		sh := s.shardFor(t.Name)
		g := int32(len(s.refs))
		ids[i] = g
		local := int32(s.shards[sh].NumTables() + len(perShard[sh]))
		s.refs = append(s.refs, shardRef{shard: int32(sh), local: local})
		s.dead = append(s.dead, false)
		s.globalTID[sh] = append(s.globalTID[sh], g)
		perShard[sh] = append(perShard[sh], t)
	}
	for sh, group := range perShard {
		if len(group) > 0 {
			s.shards[sh].addTablesBatch(group)
		}
	}
	s.recomputeBase()
	return ids
}
