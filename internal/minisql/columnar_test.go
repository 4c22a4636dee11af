package minisql

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential testing of the columnar executor against the frozen
// row-at-a-time reference (rowexec.go): every query must produce
// cell-identical results through both pipelines. Queries without ORDER BY
// are included deliberately — both executors emit rows in the same
// deterministic first-seen order, and the comparison pins that.

// compareExecutors runs sql through both executors and requires identical
// headers, row counts, and cells.
func compareExecutors(t *testing.T, cat *Catalog, sql string) {
	t.Helper()
	col, cerr := ExecSQL(cat, sql)
	row, rerr := ExecSQLRowAtATime(cat, sql)
	if (cerr != nil) != (rerr != nil) {
		t.Fatalf("%s:\n columnar err = %v\n row-at-a-time err = %v", sql, cerr, rerr)
	}
	if cerr != nil {
		return // both failed identically enough
	}
	if got, want := col.NumRows(), row.NumRows(); got != want {
		t.Fatalf("%s:\n columnar %d rows, row-at-a-time %d rows", sql, got, want)
	}
	if got, want := len(col.Columns()), len(row.Columns()); got != want {
		t.Fatalf("%s:\n columnar %d cols, row-at-a-time %d cols", sql, got, want)
	}
	for c, name := range col.Columns() {
		if row.Columns()[c] != name {
			t.Fatalf("%s:\n column %d named %q vs %q", sql, c, name, row.Columns()[c])
		}
	}
	for r := 0; r < col.NumRows(); r++ {
		for c := range col.Columns() {
			g, w := col.Cell(r, c), row.Cell(r, c)
			if g.IsNull() != w.IsNull() || (!g.IsNull() && g.GroupKey() != w.GroupKey()) {
				t.Fatalf("%s:\n cell (%d,%d): columnar %v, row-at-a-time %v", sql, r, c, g, w)
			}
		}
	}
}

// TestColumnarMatchesRowAtATimeCorpus covers every operator the executor
// implements with a fixed query corpus: scans (index and full), filters,
// projections with expressions, DISTINCT, implicit and grouped
// aggregation with HAVING, ORDER BY with LIMIT pushdown, hash joins with
// residuals, nested-loop joins, and subqueries.
func TestColumnarMatchesRowAtATimeCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := genRel(rng)
	cat := catWith("r", m)
	corpus := []string{
		"SELECT * FROM r",
		"SELECT s FROM r",
		"SELECT s, i, f FROM r WHERE s IN ('red', 'blue', '42')",
		"SELECT i, f FROM r WHERE i >= 0 AND f < 20",
		"SELECT * FROM r WHERE s IS NULL OR i IS NOT NULL",
		"SELECT i + f AS x, ABS(i) FROM r WHERE f IS NOT NULL ORDER BY x DESC LIMIT 5",
		"SELECT i FROM r ORDER BY i ASC",
		"SELECT DISTINCT s FROM r",
		"SELECT DISTINCT s FROM r ORDER BY s ASC LIMIT 3",
		"SELECT COUNT(*) FROM r",
		"SELECT COUNT(*), COUNT(i), SUM(i), AVG(f), MIN(i), MAX(f) FROM r WHERE i <> 3",
		"SELECT s, COUNT(*) AS c, SUM(i) FROM r GROUP BY s ORDER BY c DESC, s ASC",
		"SELECT s, COUNT(DISTINCT i) AS d FROM r GROUP BY s HAVING COUNT(*) > 1 ORDER BY d DESC LIMIT 2",
		"SELECT s, i FROM r WHERE i % 2 = 0 ORDER BY s DESC, i ASC LIMIT 7",
		"SELECT a.s, a.i, b.f FROM (SELECT * FROM r WHERE i >= 0) AS a" +
			" INNER JOIN (SELECT * FROM r WHERE f IS NOT NULL) AS b ON a.s = b.s",
		"SELECT a.s, b.i FROM (SELECT * FROM r WHERE i >= -5) AS a" +
			" INNER JOIN (SELECT * FROM r) AS b ON a.s = b.s AND a.i < b.i ORDER BY a.s ASC, b.i ASC",
		"SELECT a.i, b.i FROM (SELECT * FROM r WHERE i > 2) AS a" +
			" INNER JOIN (SELECT * FROM r WHERE i < 2) AS b ON a.i > b.i LIMIT 20",
		"SELECT t.s, COUNT(*) FROM (SELECT s, i FROM r WHERE i IS NOT NULL) AS t GROUP BY t.s",
	}
	for _, sql := range corpus {
		compareExecutors(t, cat, sql)
	}
}

// TestColumnarMatchesRowAtATimeRandom fuzzes the pair over random
// relations, predicates, and query shapes.
func TestColumnarMatchesRowAtATimeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	shapes := []string{
		"SELECT s, i, f FROM r WHERE %s",
		"SELECT i, f FROM r WHERE %s ORDER BY i DESC, f ASC LIMIT 4",
		"SELECT DISTINCT s FROM r WHERE %s",
		"SELECT s, COUNT(*) AS c, SUM(i) FROM r WHERE %s GROUP BY s ORDER BY c DESC, s ASC",
		"SELECT COUNT(*), MIN(f), MAX(i) FROM r WHERE %s",
	}
	for trial := 0; trial < 150; trial++ {
		m := genRel(rng)
		cat := catWith("r", m)
		pred := genPredicate(rng, 2)
		shape := shapes[rng.Intn(len(shapes))]
		compareExecutors(t, cat, fmt.Sprintf(shape, pred))
	}
}

// benchQueries is the ablation workload: the three shapes the seekers'
// generated SQL exercises — filtered scan + projection, subquery hash
// join, and grouped aggregation with a pushed LIMIT.
func benchQueries(b *testing.B) (*Catalog, []*Query) {
	b.Helper()
	m := benchRelation(20000)
	cat := catWith("r", m)
	sqls := []string{
		"SELECT v, n FROM r WHERE v IN (" + inList(64) + ")",
		"SELECT a.n FROM (SELECT * FROM r WHERE v IN (" + inList(32) + ")) AS a" +
			" INNER JOIN (SELECT * FROM r WHERE v IN (" + inList(32) + ")) AS b ON a.n = b.n",
		"SELECT v, COUNT(*), SUM(n) FROM r GROUP BY v ORDER BY COUNT(*) DESC LIMIT 10",
	}
	qs := make([]*Query, len(sqls))
	for i, sql := range sqls {
		q, err := Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	return cat, qs
}

// BenchmarkMinisqlColumnar / BenchmarkMinisqlRowAtATime is an A/B pair:
// the same pre-parsed workload through the live columnar executor and the
// frozen row-at-a-time reference. The headline metric is the allocation
// reduction.
func BenchmarkMinisqlColumnar(b *testing.B) {
	cat, qs := benchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := Exec(cat, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMinisqlRowAtATime(b *testing.B) {
	cat, qs := benchQueries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := execRow(cat, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
