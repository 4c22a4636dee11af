package alltables

import (
	"fmt"
	"reflect"
	"testing"

	"blend/internal/minisql"
	"blend/internal/storage"
	"blend/internal/table"
)

func fixtureStore(t *testing.T) *storage.ShardedStore {
	t.Helper()
	t1 := table.New("T1", "Team", "Size")
	t1.MustAppendRow("Finance", "31")
	t1.MustAppendRow("Marketing", "28")
	t1.MustAppendRow("HR", "33")
	t1.MustAppendRow("IT", "92")
	t2 := table.New("T2", "Lead", "Year", "Team")
	t2.MustAppendRow("Tom Riddle", "2022", "IT")
	t2.MustAppendRow("Firenze", "2022", "HR")
	t3 := table.New("T3", "Lead", "Year", "Team")
	t3.MustAppendRow("Ronald Weasley", "2024", "IT")
	t3.MustAppendRow("Firenze", "2024", "HR")
	for _, tb := range []*table.Table{t1, t2, t3} {
		tb.InferKinds()
	}
	return storage.Build([]*table.Table{t1, t2, t3}, 1)
}

func catalogFor(s *storage.ShardedStore) *minisql.Catalog {
	cat := minisql.NewCatalog()
	cat.Register(Name, New(s))
	return cat
}

func TestListing1SCSeekerSQL(t *testing.T) {
	cat := catalogFor(fixtureStore(t))
	res, err := minisql.ExecSQL(cat, `SELECT TableId FROM AllTables
		WHERE CellValue IN ('HR', 'Marketing', 'Finance', 'IT')
		GROUP BY TableId, ColumnId
		ORDER BY COUNT(DISTINCT CellValue) DESC, TableId ASC
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	// T1.Team matches 4 values; T2.Team and T3.Team match 2 each.
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if got, _ := res.Cell(0, 0).AsInt(); got != 0 {
		t.Fatalf("best table = %v, want T1 (id 0)", res.Cell(0, 0))
	}
}

func TestQuadrantNullSurfacesAsSQLNull(t *testing.T) {
	cat := catalogFor(fixtureStore(t))
	res, err := minisql.ExecSQL(cat, "SELECT COUNT(*) FROM AllTables WHERE Quadrant IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	// Numeric cells: T1.Size (4) + T2.Year (2) + T3.Year (2).
	if got, _ := res.Cell(0, 0).AsInt(); got != 8 {
		t.Fatalf("numeric cells = %d, want 8", got)
	}
}

func TestLookupInTableID(t *testing.T) {
	r := New(fixtureStore(t))
	rows, ok := r.LookupIn(ColTableID, []minisql.Value{minisql.Int(1)})
	if !ok {
		t.Fatal("TableId should be indexed")
	}
	for _, p := range rows {
		if v, _ := r.Cell(p, ColTableID).AsInt(); v != 1 {
			t.Fatalf("entry %d has table %v", p, v)
		}
	}
	if len(rows) != 6 { // T2 has 6 cells
		t.Fatalf("T2 entries = %d, want 6", len(rows))
	}
	// Out-of-range ids are ignored, not an error.
	rows, _ = r.LookupIn(ColTableID, []minisql.Value{minisql.Int(99), minisql.Int(-1)})
	if len(rows) != 0 {
		t.Fatal("bogus table ids must match nothing")
	}
}

func TestLookupInCellValueDedups(t *testing.T) {
	r := New(fixtureStore(t))
	once, _ := r.LookupIn(ColCellValue, []minisql.Value{minisql.Str("HR")})
	twice, _ := r.LookupIn(ColCellValue, []minisql.Value{minisql.Str("HR"), minisql.Str("HR")})
	if !reflect.DeepEqual(once, twice) {
		t.Fatal("duplicate IN values must not duplicate rows")
	}
}

func TestUnindexedColumnFallsBack(t *testing.T) {
	r := New(fixtureStore(t))
	if _, ok := r.LookupIn(ColRowID, []minisql.Value{minisql.Int(0)}); ok {
		t.Fatal("RowId is not indexed; must report ok=false")
	}
	// The executor must still answer the query by scanning.
	cat := catalogFor(fixtureStore(t))
	res, err := minisql.ExecSQL(cat, "SELECT COUNT(*) FROM AllTables WHERE RowId = 0")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Cell(0, 0).AsInt(); got != 8 {
		t.Fatalf("RowId=0 cells = %d, want 8", got)
	}
}

func TestSuperKeyColumnsExposed(t *testing.T) {
	r := New(fixtureStore(t))
	for p := 0; p < r.NumRows(); p++ {
		lo := r.Cell(p, ColSuperLo)
		hi := r.Cell(p, ColSuperHi)
		if lo.IsNull() || hi.IsNull() {
			t.Fatal("super key words must not be NULL")
		}
	}
}

func TestListing2MCFirstPhaseSQL(t *testing.T) {
	// The MC seeker's first phase (Listing 2): candidate rows carrying
	// values from both query columns in the same row.
	cat := catalogFor(fixtureStore(t))
	res, err := minisql.ExecSQL(cat, `SELECT * FROM
		(SELECT * FROM AllTables WHERE CellValue IN ('HR')) AS Q1_index_hits
		INNER JOIN
		(SELECT * FROM AllTables WHERE CellValue IN ('Firenze')) AS Q2_index_hits
		ON Q1_index_hits.TableId = Q2_index_hits.TableId
		AND Q1_index_hits.RowId = Q2_index_hits.RowId`)
	if err != nil {
		t.Fatal(err)
	}
	// ("HR","Firenze") co-occur in T2 row 1 and T3 row 1.
	if res.NumRows() != 2 {
		t.Fatalf("candidate rows = %d, want 2", res.NumRows())
	}
	// Misaligned pair: HR and Tom Riddle never share a row.
	res, err = minisql.ExecSQL(cat, `SELECT * FROM
		(SELECT * FROM AllTables WHERE CellValue IN ('HR')) AS a
		INNER JOIN
		(SELECT * FROM AllTables WHERE CellValue IN ('Tom Riddle')) AS b
		ON a.TableId = b.TableId AND a.RowId = b.RowId`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Fatalf("misaligned rows = %d, want 0", res.NumRows())
	}
}

func TestListing3CorrelationSQL(t *testing.T) {
	// Listing 3 shape: join keys against numeric quadrant bits, grouped by
	// (table, numeric column, key column), ranked by |QCR|.
	tb := table.New("corr", "City", "Pop")
	cities := []string{"aa", "bb", "cc", "dd", "ee", "ff"}
	for i, c := range cities {
		tb.MustAppendRow(c, fmt.Sprintf("%d", (i+1)*10))
	}
	tb.InferKinds()
	st := storage.Build([]*table.Table{tb}, 1)
	cat := catalogFor(st)
	// Query target grows with city index: keys below the target mean are
	// aa..cc (k0), the rest are k1 — and Pop follows the same split.
	res, err := minisql.ExecSQL(cat, `SELECT keys.TableId,
		(2 * SUM(((keys.CellValue IN ('aa','bb','cc') AND nums.Quadrant = 0)
		       OR (keys.CellValue IN ('dd','ee','ff') AND nums.Quadrant = 1))::int)
		 - COUNT(*)) / COUNT(*) AS qcr
		FROM (SELECT * FROM AllTables WHERE RowId < 256 AND CellValue IN ('aa','bb','cc','dd','ee','ff')) AS keys
		INNER JOIN (SELECT * FROM AllTables WHERE RowId < 256 AND Quadrant IS NOT NULL) AS nums
		ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId AND keys.ColumnId <> nums.ColumnId
		GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId
		ORDER BY ABS(qcr) DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if qcr, _ := res.Cell(0, 1).AsFloat(); qcr != 1 {
		t.Fatalf("QCR = %v, want 1 (perfect correlation)", qcr)
	}
}

// TestShardedGlobalViewMatchesMonolithicSQL runs seeker-shaped SQL against
// a catalog over the sharded store's unified global view and over the
// monolithic store, requiring identical result sets — the property that
// keeps the raw SQL mode partition-agnostic.
func TestShardedGlobalViewMatchesMonolithicSQL(t *testing.T) {
	t1 := table.New("A1", "Team", "Size")
	t1.MustAppendRow("HR", "33")
	t1.MustAppendRow("IT", "92")
	t2 := table.New("A2", "Team", "Lead")
	t2.MustAppendRow("HR", "Firenze")
	t2.MustAppendRow("Sales", "Luna")
	t3 := table.New("A3", "Team", "Lead")
	t3.MustAppendRow("IT", "Tom")
	t3.MustAppendRow("HR", "Minerva")
	for _, tb := range []*table.Table{t1, t2, t3} {
		tb.InferKinds()
	}
	tables := []*table.Table{t1, t2, t3}
	mono := storage.Build(tables, 1)
	shard := storage.Build(tables, 3)
	queries := []string{
		"SELECT TableId, COUNT(DISTINCT CellValue) AS overlap FROM AllTables" +
			" WHERE CellValue IN ('HR', 'IT') GROUP BY TableId ORDER BY overlap DESC, TableId ASC",
		"SELECT TableId, RowId FROM AllTables WHERE CellValue IN ('Firenze') ORDER BY TableId, RowId",
		"SELECT COUNT(*) AS n FROM AllTables WHERE TableId IN (0, 2)",
	}
	for _, q := range queries {
		r1, err := minisql.ExecSQL(catalogFor(mono), q)
		if err != nil {
			t.Fatal(err)
		}
		shardCat := minisql.NewCatalog()
		shardCat.Register(Name, New(shard))
		r2, err := minisql.ExecSQL(shardCat, q)
		if err != nil {
			t.Fatal(err)
		}
		if r1.NumRows() != r2.NumRows() {
			t.Fatalf("query %q: %d rows vs %d", q, r1.NumRows(), r2.NumRows())
		}
		for r := 0; r < r1.NumRows(); r++ {
			for c := range r1.Columns() {
				if r1.Cell(r, c).String() != r2.Cell(r, c).String() {
					t.Fatalf("query %q: cell (%d,%d) %q != %q",
						q, r, c, r1.Cell(r, c).String(), r2.Cell(r, c).String())
				}
			}
		}
	}
}
