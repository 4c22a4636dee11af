package minisql

import "sort"

// MemRelation is an in-memory Relation for the package tests.
type MemRelation struct {
	cols    []string
	rows    [][]Value
	indexes map[int]map[string][]int
}

// NewMemRelation creates a relation with the given columns.
func NewMemRelation(cols ...string) *MemRelation {
	return &MemRelation{cols: cols}
}

// Append adds a row. It panics on width mismatch (test helper semantics).
func (m *MemRelation) Append(vals ...Value) {
	if len(vals) != len(m.cols) {
		panic("minisql: MemRelation row width mismatch")
	}
	m.rows = append(m.rows, append([]Value(nil), vals...))
}

// BuildIndex creates a value index on column col; subsequent LookupIn calls
// on that column use it.
func (m *MemRelation) BuildIndex(col int) {
	if m.indexes == nil {
		m.indexes = make(map[int]map[string][]int)
	}
	idx := make(map[string][]int)
	for r, row := range m.rows {
		k := row[col].GroupKey()
		idx[k] = append(idx[k], r)
	}
	m.indexes[col] = idx
}

// Columns implements Relation.
func (m *MemRelation) Columns() []string { return m.cols }

// NumRows implements Relation.
func (m *MemRelation) NumRows() int { return len(m.rows) }

// Cell implements Relation.
func (m *MemRelation) Cell(row, col int) Value { return m.rows[row][col] }

// LookupIn implements IndexedRelation.
func (m *MemRelation) LookupIn(col int, vals []Value) ([]int, bool) {
	idx, ok := m.indexes[col]
	if !ok {
		return nil, false
	}
	var out []int
	for _, v := range vals {
		out = append(out, idx[v.GroupKey()]...)
	}
	sort.Ints(out)
	// Deduplicate (duplicate literals in the IN list).
	out = dedupSortedInts(out)
	return out, true
}

func dedupSortedInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}
