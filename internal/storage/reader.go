package storage

import (
	"io"

	"blend/internal/table"
	"blend/internal/xash"
)

// Reader is the read surface of the AllTables index: everything the SQL
// layer, the seekers, and the optimizer need to scan and reconstruct the
// unified relation. The ShardedStore, its per-shard views, and a single
// Store partition all satisfy it, so the engine above is agnostic to
// physical partitioning.
//
// Entry positions and table ids are global: a sharded implementation maps
// them onto its partitions internally. Implementations must be safe for
// concurrent readers once built (the engine scans shards in parallel).
type Reader interface {
	// NumShards reports how many partitions back the index (1 when
	// monolithic).
	NumShards() int
	// NumEntries reports the number of AllTables tuples.
	NumEntries() int
	// NumTables reports the number of indexed tables.
	NumTables() int
	// NumDistinctValues reports the number of distinct cell values.
	NumDistinctValues() int
	// TableMeta returns catalog information for a table id.
	TableMeta(tid int32) TableMeta
	// TableName returns the name of a table id, or "" if out of range.
	TableName(tid int32) string
	// TableIDByName returns the id of the named live table, or -1.
	TableIDByName(name string) int32
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
	// Postings returns the sorted entry positions whose CellValue equals
	// v. Callers must not modify the returned slice.
	Postings(v string) []int32
	// ScanPostings streams the (TableId, ColumnId, RowId) attributes of
	// every entry holding value v, in ascending entry-position order,
	// without materializing positions — the zero-allocation access path of
	// the engine's native seeker executor. Sharded implementations report
	// global table ids.
	ScanPostings(v string, fn func(tid, cid, rid int32))
	// ScanPostingsSuper is ScanPostings with the entry's row-level XASH
	// super key included — the candidate-row streaming surface of the
	// native multi-column executor, which prunes rows by super-key
	// containment before reconstructing them for exact validation.
	ScanPostingsSuper(v string, fn func(tid, cid, rid int32, super xash.Key))
	// ScanTableNumeric streams the numeric cells (Quadrant not null) of
	// table tid whose RowId < maxRow, in ascending (RowId, ColumnId)
	// order — the column-reconstruction stream of the native correlation
	// executor, which merge-joins it against key-column posting hits
	// without materializing either side. Entries within a table are
	// sorted by (RowId, ColumnId), so the rid bound cuts the scan short
	// instead of filtering it. A tombstoned (or, on a shard view,
	// foreign) table streams nothing.
	ScanTableNumeric(tid, maxRow int32, fn func(cid, rid int32, q int8))
	// Frequency returns the number of index entries holding value v.
	Frequency(v string) int
	// AvgFrequency returns the mean index frequency of the given values.
	AvgFrequency(values []string) float64
	// TableEntries returns the [start, end) entry range of a table id.
	TableEntries(tid int32) (start, end int32)
	// ReconstructRow materializes row rid of table tid from the index.
	ReconstructRow(tid, rid int32) []string
	// ReconstructTable materializes a full table from the index.
	ReconstructTable(tid int32) *table.Table
	// SizeBytes estimates the resident size of the index in bytes.
	SizeBytes() int64
	// ComputeStats scans the index once and returns its summary.
	ComputeStats() Stats
}

// Index is the whole index: a Reader plus per-shard views, copy-on-write
// maintenance, and persistence. blend.Discovery holds an Index; the
// engine's query path needs only the Reader half. *ShardedStore is its one
// implementation.
//
// Every mutation is copy-on-write: the receiver is left untouched and a
// derived index is returned, so readers of the old index never observe
// the change. Writers must be serialized (the engine holds its write lock)
// and must always derive from the newest index.
type Index interface {
	Reader
	io.Closer
	// ShardReaders returns one Reader per shard. Each view reports global
	// table ids but shard-local entry positions; the engine uses them to
	// fan a seeker's SQL out across partitions concurrently.
	ShardReaders() []Reader
	// CloneAddTablesBatch derives an index with a batch of tables appended
	// and returns it with their (global) ids in input order. The
	// per-shard inserts run concurrently, bounded by workers (<= 0 means
	// GOMAXPROCS).
	CloneAddTablesBatch(tables []*table.Table, workers int) (Index, []int32)
	// CloneRemoveTable derives an index with one table tombstoned: it
	// disappears from every read surface while its entries stay allocated
	// until CloneCompact. The receiver is left untouched on error.
	CloneRemoveTable(tid int32) (Index, error)
	// CloneCompact derives a fully rebuilt index without tombstoned tables,
	// reassigning table ids contiguously, and reports how many were
	// reclaimed. With no tombstones it returns the receiver itself and 0.
	// It never releases the parent's file mapping — older generations may
	// still materialize shards from it; the owner closes the mapping when
	// the last generation referencing it is released.
	CloneCompact() (Index, int)
	// Save writes the index to w in the v4 segmented format.
	Save(w io.Writer) error
	// SaveFile writes the index to a file.
	SaveFile(path string) error
}

var (
	_ Index  = (*ShardedStore)(nil)
	_ Reader = (*Store)(nil)
	_ Reader = (*shardView)(nil)
)
