// Package alltables bridges the storage engine and the SQL engine: it
// presents the whole index (every shard of a storage.ShardedStore, in
// global entry positions) as the one AllTables relation of Fig. 3, so that
// raw SQL and the seekers' generated SQL (Listings 1–3 of the paper) run
// against it, with the inverted index on CellValue (read through the
// store's posting cursor) and the range index on TableId served as minisql
// index access paths.
package alltables

import (
	"sort"

	"blend/internal/minisql"
	"blend/internal/storage"
)

// Column positions of the AllTables relation.
const (
	ColCellValue = iota
	ColTableID
	ColColumnID
	ColRowID
	ColSuperLo
	ColSuperHi
	ColQuadrant
	numCols
)

// Name is the relation name the seekers' SQL refers to.
const Name = "AllTables"

var columns = []string{
	"CellValue", "TableId", "ColumnId", "RowId", "SuperKeyLo", "SuperKeyHi", "Quadrant",
}

// Relation adapts a storage.ShardedStore to minisql.IndexedRelation: row
// i of the relation is global entry i of the store, so one relation spans
// every shard.
type Relation struct {
	store *storage.ShardedStore
}

// New wraps an index.
func New(s *storage.ShardedStore) *Relation { return &Relation{store: s} }

// Columns implements minisql.Relation.
func (r *Relation) Columns() []string { return columns }

// NumRows implements minisql.Relation.
func (r *Relation) NumRows() int { return r.store.NumEntries() }

// Cell implements minisql.Relation.
func (r *Relation) Cell(row, col int) minisql.Value {
	i := int32(row)
	switch col {
	case ColCellValue:
		return minisql.Str(r.store.Value(i))
	case ColTableID:
		return minisql.Int(int64(r.store.TableID(i)))
	case ColColumnID:
		return minisql.Int(int64(r.store.ColumnID(i)))
	case ColRowID:
		return minisql.Int(int64(r.store.RowID(i)))
	case ColSuperLo:
		return minisql.Int(int64(r.store.SuperKey(i).Lo))
	case ColSuperHi:
		return minisql.Int(int64(r.store.SuperKey(i).Hi))
	case ColQuadrant:
		q := r.store.Quadrant(i)
		if q == storage.QuadrantNull {
			return minisql.Null
		}
		return minisql.Int(int64(q))
	default:
		return minisql.Null
	}
}

// HasTombstones implements minisql.Tombstoned: scans pay the per-row
// visibility check only while removed tables await compaction.
func (r *Relation) HasTombstones() bool { return r.store.Tombstones() > 0 }

// RowVisible implements minisql.Tombstoned: an entry is live iff its
// owning table has not been removed.
func (r *Relation) RowVisible(row int) bool {
	return r.store.TableAlive(r.store.TableID(int32(row)))
}

// LookupIn implements minisql.IndexedRelation: CellValue lookups use the
// inverted index; TableId lookups use the table range index.
func (r *Relation) LookupIn(col int, vals []minisql.Value) ([]int, bool) {
	switch col {
	case ColCellValue:
		var out []int
		var blk storage.PostingBlock
		for _, v := range vals {
			if v.K != minisql.KStr {
				v = minisql.Str(v.String())
			}
			cur := r.store.Postings(v.S)
			for cur.Next(&blk, false) {
				for _, p := range blk.Pos[:blk.N] {
					out = append(out, int(p))
				}
			}
		}
		return dedupPositions(out), true
	case ColTableID:
		var out []int
		for _, v := range vals {
			tid, ok := v.AsInt()
			if !ok || tid < 0 || int(tid) >= r.store.NumTables() {
				continue
			}
			start, end := r.store.TableEntries(int32(tid))
			for p := start; p < end; p++ {
				out = append(out, int(p))
			}
		}
		return dedupPositions(out), true
	default:
		return nil, false
	}
}

// dedupPositions sorts and deduplicates entry positions. Values in an IN
// list are usually distinct, so duplicates are rare but must not reach the
// executor (a row may not match twice).
func dedupPositions(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}
