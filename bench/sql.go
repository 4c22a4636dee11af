package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"blend"
	"blend/internal/core"
	"blend/internal/minisql"
)

// sqlCycle is the fixed statement mix of sql_adhoc: 60 % seeker-shaped
// statements (what a seeker would send to a database), 25 % aggregates,
// 15 % two-way self-joins.
var sqlCycle = []string{
	"seeker", "agg", "seeker", "seeker", "join", "seeker", "agg", "seeker", "seeker", "agg",
	"seeker", "join", "seeker", "agg", "seeker", "seeker", "join", "seeker", "agg", "seeker",
}

// sqlOp is one generated statement. Seeker-shaped statements carry the
// seeker they were rendered from: its native answer is their oracle.
type sqlOp struct {
	kind   string
	sql    string
	seeker blend.Seeker
}

type sqlStream struct {
	g     *qgen
	i     int
	drawn map[string]int
}

// stopValues is how many of the lake's most frequent values statements
// leave out of their IN lists. The generator draws values Zipf(1.3): the
// top one fills a quarter of all string cells and sits in every column, so
// a statement naming it scans a quarter of the lake (about a second for a
// join), and a window would fit too few statements for a percentile.
const stopValues = 8

func newSQLStream(b *base, seed int64, stream, client int) *sqlStream {
	g := newQgen(b.lake, seed, stream, client)
	g.skip = make(map[string]bool, stopValues)
	for _, v := range b.lake.Vocab[:stopValues] {
		g.skip[v] = true
	}
	return &sqlStream{g: g, i: client * len(sqlCycle) / 2, drawn: map[string]int{}}
}

func (s *sqlStream) next() sqlOp {
	kind := sqlCycle[s.i%len(sqlCycle)]
	s.i++
	n := s.drawn[kind]
	s.drawn[kind]++
	op := sqlOp{kind: kind}
	switch kind {
	case "seeker":
		vals := s.g.column(5 + (n*5)%16) // |IN| 5–20
		if n%2 == 0 {
			op.seeker = blend.SC(vals, topK)
		} else {
			op.seeker = blend.KW(vals, topK)
		}
		op.sql = op.seeker.SQL(core.NoRewrite)
	case "agg":
		if n%2 == 0 {
			// Profile a handful of tables: rows and distinct values per column.
			ids := make([]string, 8)
			for i := range ids {
				ids[i] = fmt.Sprint(s.g.rng.Intn(len(s.g.lake.Tables)))
			}
			op.sql = "SELECT TableId, ColumnId, COUNT(*) AS n, COUNT(DISTINCT CellValue) AS d FROM AllTables WHERE TableId IN (" +
				strings.Join(ids, ", ") + ") GROUP BY TableId, ColumnId ORDER BY d DESC, TableId ASC, ColumnId ASC LIMIT 20"
		} else {
			// How widely a set of values is spread over the lake.
			op.sql = "SELECT CellValue, COUNT(*) AS n, COUNT(DISTINCT TableId) AS t FROM AllTables WHERE CellValue IN (" +
				quoteList(s.g.column(10)) + ") GROUP BY CellValue ORDER BY t DESC, CellValue ASC LIMIT 5"
		}
	case "join":
		tuples := s.g.tuples(3+n%3, 2)
		op.sql = blend.MC(tuples, topK).SQL(core.NoRewrite)
	default:
		panic("unknown statement kind " + kind)
	}
	return op
}

func quoteList(vals []string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	return strings.Join(q, ", ")
}

// sqlAdhoc is the sql_adhoc workload: raw SQL through the embedded
// engine, where parse and exec do all the work and the native seeker
// paths none.
type sqlAdhoc struct {
	common
}

func (w *sqlAdhoc) open(b *base, _ string) error {
	w.b = b
	return nil
}

func (w *sqlAdhoc) close() error { return w.b.d.Close() }

func (w *sqlAdhoc) window(dur time.Duration, stream int, tr *tracer) (*observed, error) {
	fns := make([]opFunc, clients)
	for c := range fns {
		st := newSQLStream(w.b, w.cfg.seed, stream, c)
		fns[c] = func() (string, time.Duration, error) {
			op := st.next()
			_, end := tr.start("blend.sql."+op.kind, 0, 0)
			t := time.Now()
			res, err := w.b.d.Engine().ExecRawSQL(context.Background(), op.sql)
			lat := time.Since(t)
			end()
			if err == nil && res.NumRows() == 0 {
				// Every statement is built from lake content.
				err = fmt.Errorf("%s statement returned no rows: %s", op.kind, op.sql)
			}
			return op.kind, lat, err
		}
	}
	return closedLoop(fns, dur)
}

func (w *sqlAdhoc) probeOps(n int) []sqlOp {
	st := newSQLStream(w.b, w.cfg.seed, probeStream, 0)
	ops := make([]sqlOp, n)
	for i := range ops {
		ops[i] = st.next()
	}
	return ops
}

// rowsKey renders a result for comparison and hashing.
func rowsKey(r *minisql.Result) string {
	var sb strings.Builder
	for row := 0; row < r.NumRows(); row++ {
		for col := range r.Columns() {
			sb.WriteString(r.Cell(row, col).String())
			sb.WriteByte('\t')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// topFromRows reduces a seeker-shaped statement's rows (TableId, score
// [, per column]) to the seeker's answer: best score per table, top k by
// (score desc, table id asc).
func topFromRows(r *minisql.Result, k int) []string {
	best := map[int64]int64{}
	for row := 0; row < r.NumRows(); row++ {
		tid, score := r.Cell(row, 0).I, r.Cell(row, 1).I
		if score > best[tid] {
			best[tid] = score
		}
	}
	ids := make([]int64, 0, len(best))
	for tid := range best {
		ids = append(ids, tid)
	}
	sort.Slice(ids, func(a, b int) bool {
		if best[ids[a]] != best[ids[b]] {
			return best[ids[a]] > best[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if len(ids) > k {
		ids = ids[:k]
	}
	out := make([]string, len(ids))
	for i, tid := range ids {
		out[i] = fmt.Sprintf("%d:%d", tid, best[tid])
	}
	return out
}

// verify checks seeker-shaped statements against the native seeker's
// hits, and every other statement against the frozen row-at-a-time
// reference executor.
func (w *sqlAdhoc) verify() (int, []string, string) {
	var failures []string
	h := fnv.New64a()
	ops := w.probeOps(len(sqlCycle))
	for _, op := range ops {
		res, err := w.b.d.Engine().ExecRawSQL(context.Background(), op.sql)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", op.kind, err))
			continue
		}
		h.Write([]byte(rowsKey(res)))
		if op.seeker != nil {
			hits, err := w.b.d.Seek(context.Background(), op.seeker)
			if err != nil {
				failures = append(failures, fmt.Sprintf("native oracle: %v", err))
				continue
			}
			want := make([]string, len(hits))
			for i, hit := range hits {
				want[i] = fmt.Sprintf("%d:%d", hit.TableID, int64(hit.Score))
			}
			if got := topFromRows(res, topK); strings.Join(got, " ") != strings.Join(want, " ") {
				failures = append(failures, fmt.Sprintf("seeker-shaped statement disagrees with the native seeker: got %v want %v: %s", got, want, op.sql))
			}
			continue
		}
		ref, err := minisql.ExecSQLRowAtATime(w.b.d.Engine().Catalog(), op.sql)
		if err != nil {
			failures = append(failures, fmt.Sprintf("reference executor: %v", err))
			continue
		}
		if rowsKey(ref) != rowsKey(res) {
			failures = append(failures, fmt.Sprintf("%s statement disagrees with the reference executor: %s", op.kind, op.sql))
		}
	}
	return len(ops), failures, fmt.Sprintf("%016x", h.Sum64())
}

// layers probes minisql alone, single-threaded, on the fixed statement
// sample: parse time, exec time per statement kind, rows produced.
func (w *sqlAdhoc) layers(_ *tracer, _, _ *observed, m metrics) error {
	cat := w.b.d.Engine().Catalog()
	var parseUS []float64
	execMS := map[string][]float64{}
	var rows float64
	ops := w.probeOps(7 * len(sqlCycle)) // 21 joins: enough for a median
	for _, op := range ops {
		t := time.Now()
		q, err := minisql.Parse(op.sql)
		parse := time.Since(t)
		if err != nil {
			return fmt.Errorf("probe parse: %w", err)
		}
		t = time.Now()
		res, err := minisql.Exec(cat, q)
		exec := time.Since(t)
		if err != nil {
			return fmt.Errorf("probe exec: %w", err)
		}
		parseUS = append(parseUS, float64(parse)/float64(time.Microsecond))
		execMS[op.kind] = append(execMS[op.kind], ms(exec))
		rows += float64(res.NumRows())
	}
	m.pct("minisql.parse_us_p50", parseUS, 0.5)
	for _, kind := range []string{"seeker", "agg", "join"} {
		m.pct("minisql.exec_ms_p50."+kind, execMS[kind], 0.5)
	}
	m["minisql.rows_out_per_op"] = rows / float64(len(ops))
	return nil
}
