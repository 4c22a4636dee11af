package storage

import (
	"blend/internal/table"
	"blend/internal/xash"
)

// Reader is the read surface of the AllTables index: everything the SQL
// layer and the native seekers scan and reconstruct the unified relation
// through. The ShardedStore, its per-shard views, and a single Store
// partition all satisfy it, so the engine above is agnostic to physical
// partitioning.
//
// Table ids are global. Entry positions are global on a ShardedStore and
// local on a shard view (the relation a per-shard scan sees is just that
// shard). Implementations must be safe for concurrent readers once built
// (the engine scans shards in parallel).
type Reader interface {
	// NumEntries reports the number of AllTables tuples.
	NumEntries() int
	// NumTables reports the number of indexed tables.
	NumTables() int
	// TableAlive reports whether a table id is allocated and not
	// tombstoned.
	TableAlive(tid int32) bool
	// Tombstones reports the number of removed-but-not-compacted tables.
	Tombstones() int
	// Value returns the CellValue of entry i.
	Value(i int32) string
	// TableID returns the TableId of entry i.
	TableID(i int32) int32
	// ColumnID returns the ColumnId of entry i.
	ColumnID(i int32) int32
	// RowID returns the RowId of entry i.
	RowID(i int32) int32
	// SuperKey returns the XASH super key of entry i's row.
	SuperKey(i int32) xash.Key
	// Quadrant returns the quadrant bit of entry i, or QuadrantNull.
	Quadrant(i int32) int8
	// Postings returns a cursor over the live entries whose CellValue
	// equals v, in ascending entry-position order — the inverted index on
	// CellValue, read block by block.
	Postings(v string) PostingCursor
	// ScanTableNumeric streams the numeric cells (Quadrant not null) of
	// table tid whose RowId < maxRow, in ascending (RowId, ColumnId)
	// order. A tombstoned (or, on a shard view, foreign) table streams
	// nothing.
	ScanTableNumeric(tid, maxRow int32, fn func(cid, rid int32, q int8))
	// AvgFrequency returns the mean index frequency of the given values.
	AvgFrequency(values []string) float64
	// TableEntries returns the [start, end) entry range of a table id.
	TableEntries(tid int32) (start, end int32)
	// ReconstructRow materializes row rid of table tid from the index.
	ReconstructRow(tid, rid int32) []string
	// ReconstructTable materializes a full table from the index.
	ReconstructTable(tid int32) *table.Table
}

var (
	_ Reader = (*ShardedStore)(nil)
	_ Reader = (*Store)(nil)
	_ Reader = (*shardView)(nil)
)

// BlockSize is the most entries one PostingCursor.Next call gathers.
const BlockSize = 256

// PostingBlock is one caller-owned block of posting entries in parallel
// columns: entry i of the block is (Pos[i], TID[i], CID[i], RID[i]) for
// i < N. Super is filled only when the caller asks for super keys. A block
// is plain fixed-size arrays, so a caller keeps one on its stack or in
// pooled scratch and reuses it for every cursor it drains.
type PostingBlock struct {
	N                  int
	Pos, TID, CID, RID [BlockSize]int32
	Super              [BlockSize]xash.Key
}

// PostingCursor walks the live postings of one cell value, one block at a
// time. Reader.Postings returns it by value and it holds no buffers, so
// draining it allocates nothing. It skips tombstoned tables and reports
// global table ids; positions are global on a ShardedStore and local on a
// shard view or a bare Store, as the Reader they came from defines them.
//
//	cur := r.Postings(v)
//	for cur.Next(&blk, false) {
//		for i := range blk.N { … blk.TID[i] … }
//	}
type PostingCursor struct {
	s         *ShardedStore // nil for a cursor over one bare Store
	value     string
	next, end int  // the shards still to open: [next, end)
	global    bool // report global entry positions

	st   *Store  // the shard being gathered
	list []int32 // its postings not yet gathered
	gtid []int32 // its local -> global table ids; nil keeps local ids
	base int32   // added to its positions
}

// Next fills b with the next block of live entries, including their row
// super keys when super is set, and reports whether the block holds any;
// false means the cursor is exhausted. A block never spans two shards, so
// it may hold fewer than BlockSize entries before the end.
func (c *PostingCursor) Next(b *PostingBlock, super bool) bool {
	for {
		for len(c.list) == 0 {
			if c.s == nil || c.next >= c.end {
				b.N = 0
				return false
			}
			i := c.next
			c.next++
			c.st = c.s.shard(i)
			c.list = c.st.postingList(c.value)
			c.gtid = c.s.globalTID[i]
			if c.global {
				c.base = c.s.base[i]
			}
		}
		st, list := c.st, c.list
		n, i := 0, 0
		for ; i < len(list) && n < BlockSize; i++ {
			p := list[i]
			tid := st.tableIDs[p]
			if st.numDead > 0 && st.dead[tid] {
				continue
			}
			if c.gtid != nil {
				tid = c.gtid[tid]
			}
			b.Pos[n], b.TID[n], b.CID[n], b.RID[n] = p+c.base, tid, st.columnIDs[p], st.rowIDs[p]
			if super {
				b.Super[n] = xash.Key{Lo: st.superLo[p], Hi: st.superHi[p]}
			}
			n++
		}
		c.list = list[i:]
		if n > 0 {
			b.N = n
			return true
		}
	}
}
