// Package storage implements the database substrate that hosts BLEND's
// unified index: the AllTables fact table of Fig. 3 in the paper
// (CellValue, TableId, ColumnId, RowId, SuperKey, Quadrant), together with
// the two in-database indexes the paper creates on it (an inverted index on
// CellValue and a clustered range index on TableId), value-frequency
// statistics for the optimizer's work estimate, and binary persistence.
//
// AllTables is stored column-wise: each attribute lives in a dense
// parallel array, so scans touch only the attributes they need (the
// paper's column-store deployment). The index is a ShardedStore of one or
// more Store partitions; a single-shard ShardedStore is the monolithic
// case.
//
// Every consumer reads postings the same way: ShardedStore.Postings (or,
// one shard at a time, ShardPostings) returns a PostingCursor that gathers
// the live entries of one value into a caller-owned PostingBlock of
// parallel position / table / column / row (and, on request, super-key)
// columns, block by block, mapping shard-local table ids to global ones as
// it goes.
package storage

import (
	"sort"
	"strconv"
	"strings"

	"blend/internal/qcr"
	"blend/internal/table"
	"blend/internal/xash"
)

// QuadrantNull marks a non-numeric cell in the Quadrant attribute.
const QuadrantNull int8 = -1

// TableMeta records per-table catalog information kept alongside the index.
type TableMeta struct {
	Name     string
	ColNames []string
	ColKinds []table.Kind
	NumRows  int32
}

// Store is one partition of the AllTables relation plus its indexes and
// catalog: the per-shard unit a ShardedStore is built from. Entry
// positions and table ids are local to the partition. A Store only grows:
// it is built, then appended to (as a private cowClone once readers share
// it), and no table in it is ever changed or dropped. Which tables are
// removed is recorded once, by global id, on the ShardedStore.
type Store struct {
	// Dictionary-encoded cell values. The value -> id map is split in two
	// layers so copy-on-write clones (see cow.go) can share the bulk of it
	// across generations: dictBase is shared read-only once a clone exists
	// and must never be written after that point; dictDelta holds this
	// generation's new values and is always owned by exactly one store. A
	// store built from scratch (Build, loader) has a nil delta and writes
	// its base directly. Values never appear in both layers.
	dict      []string
	dictBase  map[string]int32
	dictDelta map[string]int32

	// Attribute arrays, parallel and sorted by (TableID, RowID, ColumnID).
	valIdx    []int32
	tableIDs  []int32
	columnIDs []int32
	rowIDs    []int32
	superLo   []uint64
	superHi   []uint64
	quadrant  []int8

	// In-DB index on CellValue: dictionary id -> sorted entry positions.
	postings [][]int32
	// In-DB index on TableId: table id -> [start, end) entry positions.
	tableRange [][2]int32

	tables []TableMeta
}

func newStore() *Store {
	return &Store{dictBase: make(map[string]int32)}
}

// addTablesBatch appends a batch of tables in order and returns their
// ids. Unlike a loop over addTable, the attribute arrays are grown once
// for the whole batch (the cell count is known up front). Not safe for
// use concurrent with readers.
func (s *Store) addTablesBatch(tables []*table.Table) []int32 {
	cells := 0
	for _, t := range tables {
		cells += len(t.Rows) * len(t.Columns) // upper bound: nulls are skipped
	}
	s.reserve(cells)
	ids := make([]int32, len(tables))
	for i, t := range tables {
		ids[i] = s.addTable(t)
	}
	return ids
}

// reserve makes room in the attribute arrays for extra upcoming entries,
// in at most one reallocation each. Capacity grows by at least half, so a
// series of small publishes copies the arrays an amortised O(1) times per
// entry rather than once per publish.
func (s *Store) reserve(extra int) {
	if extra <= 0 {
		return
	}
	need := len(s.valIdx) + extra
	if cap(s.valIdx) >= need {
		return
	}
	need = max(need, cap(s.valIdx)+cap(s.valIdx)/2)
	growI32 := func(a []int32) []int32 {
		n := make([]int32, len(a), need)
		copy(n, a)
		return n
	}
	growU64 := func(a []uint64) []uint64 {
		n := make([]uint64, len(a), need)
		copy(n, a)
		return n
	}
	s.valIdx = growI32(s.valIdx)
	s.tableIDs = growI32(s.tableIDs)
	s.columnIDs = growI32(s.columnIDs)
	s.rowIDs = growI32(s.rowIDs)
	s.superLo = growU64(s.superLo)
	s.superHi = growU64(s.superHi)
	q := make([]int8, len(s.quadrant), need)
	copy(q, s.quadrant)
	s.quadrant = q
}

// addTable indexes one table, assigning it the next table id, and returns
// that id. It computes, per row, the XASH super key over all cells and,
// per numeric cell, the quadrant bit against the column mean — the three
// unified structures of §V. Not safe for use concurrent with readers.
func (s *Store) addTable(t *table.Table) int32 {
	tid := int32(len(s.tables))
	meta := TableMeta{Name: t.Name, NumRows: int32(len(t.Rows))}
	meta.ColNames = make([]string, len(t.Columns))
	meta.ColKinds = make([]table.Kind, len(t.Columns))
	for i, c := range t.Columns {
		meta.ColNames[i] = c.Name
		meta.ColKinds[i] = c.Kind
	}
	s.tables = append(s.tables, meta)

	// Column means for quadrant bits.
	means := make([]float64, len(t.Columns))
	numeric := make([]bool, len(t.Columns))
	for c, col := range t.Columns {
		if col.Kind != table.KindNumeric {
			continue
		}
		vals, _ := t.NumericColumnValues(c)
		if len(vals) == 0 {
			continue
		}
		numeric[c] = true
		means[c] = qcr.Mean(vals)
	}

	start := int32(len(s.valIdx))
	for r, row := range t.Rows {
		key := xash.HashRow(row)
		for c, v := range row {
			if v == table.Null {
				continue
			}
			q := QuadrantNull
			if numeric[c] {
				if f, ok := parseFloat(v); ok {
					q = qcr.QuadrantBit(f, means[c])
				}
			}
			s.appendEntry(v, tid, int32(c), int32(r), key, q)
		}
	}
	s.tableRange = append(s.tableRange, [2]int32{start, int32(len(s.valIdx))})
	return tid
}

// lookupValue resolves a cell value to its dictionary id across both map
// layers.
func (s *Store) lookupValue(v string) (int32, bool) {
	if vi, ok := s.dictBase[v]; ok {
		return vi, true
	}
	if s.dictDelta != nil {
		if vi, ok := s.dictDelta[v]; ok {
			return vi, true
		}
	}
	return 0, false
}

// internValue records a new value -> id mapping. A store with a delta layer
// shares its base read-only with older generations and must write the delta;
// an unshared store writes its base directly.
func (s *Store) internValue(v string, vi int32) {
	if s.dictDelta != nil {
		s.dictDelta[v] = vi
		return
	}
	s.dictBase[v] = vi
}

func (s *Store) appendEntry(v string, tid, cid, rid int32, key xash.Key, q int8) {
	vi, ok := s.lookupValue(v)
	if !ok {
		vi = int32(len(s.dict))
		s.dict = append(s.dict, v)
		s.internValue(v, vi)
		s.postings = append(s.postings, nil)
	}
	pos := int32(len(s.valIdx))
	s.valIdx = append(s.valIdx, vi)
	s.tableIDs = append(s.tableIDs, tid)
	s.columnIDs = append(s.columnIDs, cid)
	s.rowIDs = append(s.rowIDs, rid)
	s.superLo = append(s.superLo, key.Lo)
	s.superHi = append(s.superHi, key.Hi)
	s.quadrant = append(s.quadrant, q)
	s.postings[vi] = append(s.postings[vi], pos)
}

// parseFloat parses a cell as a float, tolerating surrounding whitespace,
// mirroring table.Table.NumericColumnValues.
func parseFloat(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f, err == nil
}

// NumEntries reports the number of AllTables tuples.
func (s *Store) NumEntries() int { return len(s.valIdx) }

// NumTables reports the number of indexed tables.
func (s *Store) NumTables() int { return len(s.tables) }

// NumDistinctValues reports the dictionary size.
func (s *Store) NumDistinctValues() int { return len(s.dict) }

// TableMeta returns catalog information for a table id.
func (s *Store) TableMeta(tid int32) TableMeta { return s.tables[tid] }

// Value returns the CellValue of entry i.
func (s *Store) Value(i int32) string { return s.dict[s.valIdx[i]] }

// TableID returns the TableId of entry i.
func (s *Store) TableID(i int32) int32 { return s.tableIDs[i] }

// ColumnID returns the ColumnId of entry i.
func (s *Store) ColumnID(i int32) int32 { return s.columnIDs[i] }

// RowID returns the RowId of entry i.
func (s *Store) RowID(i int32) int32 { return s.rowIDs[i] }

// SuperKey returns the XASH super key of entry i's row.
func (s *Store) SuperKey(i int32) xash.Key {
	return xash.Key{Lo: s.superLo[i], Hi: s.superHi[i]}
}

// Quadrant returns the quadrant bit of entry i, or QuadrantNull for
// non-numeric cells.
func (s *Store) Quadrant(i int32) int8 { return s.quadrant[i] }

// postingList returns every entry position whose CellValue equals v, in
// ascending order and removed tables included — the in-DB inverted index
// lookup a PostingCursor gathers from. Callers must not modify it.
func (s *Store) postingList(v string) []int32 {
	vi, ok := s.lookupValue(v)
	if !ok {
		return nil
	}
	return s.postings[vi]
}

// ScanTableNumeric streams the numeric cells (Quadrant not null) of table
// tid whose RowId < maxRow, in ascending (RowId, ColumnId) order — the
// per-table quadrant stream the native correlation executor merge-joins
// against key-column posting hits. Entries within a table are sorted by
// (RowId, ColumnId), so the first entry at or past maxRow ends the scan.
func (s *Store) ScanTableNumeric(tid, maxRow int32, fn func(cid, rid int32, q int8)) {
	r := s.tableRange[tid]
	for i := r[0]; i < r[1]; i++ {
		rid := s.rowIDs[i]
		if rid >= maxRow {
			return
		}
		q := s.quadrant[i]
		if q == QuadrantNull {
			continue
		}
		fn(s.columnIDs[i], rid, q)
	}
}

// ReconstructRow materializes row rid of table tid from the index, with
// nulls for absent cells — how BLEND validates candidate rows without
// loading source files.
func (s *Store) ReconstructRow(tid, rid int32) []string {
	meta := s.tables[tid]
	row := make([]string, len(meta.ColNames))
	start, end := s.tableRange[tid][0], s.tableRange[tid][1]
	// Entries are sorted by (TableID, RowID, ColumnID): binary search the
	// row's first entry.
	lo := start + int32(sort.Search(int(end-start), func(k int) bool {
		return s.rowIDs[start+int32(k)] >= rid
	}))
	for i := lo; i < end && s.rowIDs[i] == rid; i++ {
		row[s.columnIDs[i]] = s.Value(i)
	}
	return row
}

// ReconstructTable materializes a full table from the index.
func (s *Store) ReconstructTable(tid int32) *table.Table {
	meta := s.tables[tid]
	t := table.New(meta.Name, meta.ColNames...)
	for c, k := range meta.ColKinds {
		t.Columns[c].Kind = k
	}
	t.Rows = make([][]string, meta.NumRows)
	for r := range t.Rows {
		t.Rows[r] = make([]string, len(meta.ColNames))
	}
	r := s.tableRange[tid]
	for i := r[0]; i < r[1]; i++ {
		t.Rows[s.rowIDs[i]][s.columnIDs[i]] = s.Value(i)
	}
	return t
}

// SizeBytes estimates the resident size of the index in bytes: dictionary
// strings plus fixed-width attribute arrays plus postings. Used to
// reproduce the storage comparison of Table VIII.
func (s *Store) SizeBytes() int64 {
	var b int64
	for _, v := range s.dict {
		b += int64(len(v)) + 16 // string header
	}
	n := int64(len(s.valIdx))
	b += n * (4 + 4 + 4 + 4 + 8 + 8 + 1) // attribute arrays
	for _, p := range s.postings {
		b += int64(len(p)) * 4
	}
	b += int64(len(s.tableRange)) * 8
	return b
}
