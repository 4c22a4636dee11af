package minisql

// Relation is a readable table the engine can query. Implementations must
// be safe for concurrent readers.
type Relation interface {
	// Columns returns the column names in position order.
	Columns() []string
	// NumRows returns the row count.
	NumRows() int
	// Cell returns the value at (row, col).
	Cell(row, col int) Value
}

// Tombstoned is a Relation whose rows can be logically deleted in place:
// scans skip rows RowVisible rejects, so deletion needs no physical row
// renumbering. The AllTables relation implements it to hide entries of
// removed-but-not-compacted tables from full scans.
type Tombstoned interface {
	Relation
	// HasTombstones reports whether any row is currently invisible; scans
	// skip the per-row visibility check entirely when false.
	HasTombstones() bool
	// RowVisible reports whether row r is live.
	RowVisible(r int) bool
}

// IndexedRelation is a Relation with value-index access paths. The engine
// uses LookupIn to avoid full scans for `col IN (…)` predicates — this is
// how the AllTables inverted index and TableId index accelerate seekers.
type IndexedRelation interface {
	Relation
	// LookupIn returns the sorted row positions where column col equals
	// any of vals, and whether the column has an index at all. When ok is
	// false the engine falls back to a scan.
	LookupIn(col int, vals []Value) (rows []int, ok bool)
}

// Catalog names the relations available to queries.
type Catalog struct {
	rels map[string]Relation
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{rels: make(map[string]Relation)}
}

// Register adds or replaces a named relation.
func (c *Catalog) Register(name string, r Relation) { c.rels[name] = r }

// Lookup finds a relation by name.
func (c *Catalog) Lookup(name string) (Relation, bool) {
	r, ok := c.rels[name]
	return r, ok
}
