package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blend/internal/qcr"
	"blend/internal/storage"
	"blend/internal/xash"
)

// SeekerKind identifies the seeker types of §IV-A.
type SeekerKind int

// Seeker kind values.
const (
	// KW is the keyword seeker.
	KW SeekerKind = iota
	// SC is the single-column seeker.
	SC
	// MC is the multi-column seeker.
	MC
	// C is the correlation seeker.
	C
	// Semantic is the embedding-based seeker (the §X future-work
	// extension implemented in this reproduction).
	Semantic
)

// String names the kind as in the paper.
func (k SeekerKind) String() string {
	switch k {
	case KW:
		return "KW"
	case SC:
		return "SC"
	case MC:
		return "MC"
	case C:
		return "C"
	case Semantic:
		return "Semantic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RunStats captures per-seeker execution diagnostics used by the
// experiments (Table V counts true/false positives of the MC seeker).
//
// Invariant: Candidates and Validated describe a seeker's validation
// funnel and exist for exactly two kinds. For MC they are candidate rows
// surviving the XASH super-key filter, then rows surviving exact tuple
// validation. For Semantic they are distinct candidate tables surviving
// the rewrite post-filter of the ANN search, then tables corroborated by
// at least one exact query-value posting. Every other seeker kind has no
// such funnel and reports both as zero, on the native and the SQL path
// alike (core_test.go asserts this). Consumers attributing funnel
// counters must therefore gate on Kind (MC or Semantic), not on the
// counters being non-zero.
type RunStats struct {
	Kind       SeekerKind
	Duration   time.Duration
	SQLRows    int // rows the seeker's (actual or equivalent) SQL produced; ANN neighbours for Semantic
	Candidates int // funnel input (MC and Semantic only; see above)
	Validated  int // funnel survivors (MC and Semantic only; see above)
	Rewritten  bool
	// Path reports the execution path the run took: PathNative for the
	// posting-list fast path, PathSQL for the minisql interpreter, PathANN
	// for the semantic seeker's embedding search (surfaced by -explain and
	// the service's per-node paths).
	Path string
	// CacheHit marks a run served from the engine's result cache; Path
	// then reports the path that originally produced the entry.
	CacheHit bool
}

// Seeker is a low-level search operator: given an input Q it returns the
// top-k most relevant tables (§IV-A).
type Seeker interface {
	// Kind reports the seeker type, which drives rule-based ranking.
	Kind() SeekerKind
	// TopK is the seeker-level result limit.
	TopK() int
	// estimate prices this seeker's input against the given index for
	// the optimizer's within-kind ordering; only the ordering of estimates
	// of one kind matters.
	estimate(store *storage.ShardedStore) float64
	// SQL renders the seeker's (first-phase) SQL statement with the given
	// rewrite predicate injected, as the optimizer would execute it.
	SQL(rw Rewrite) string
	// run executes the seeker against a view — one pinned generation
	// snapshot plus the engine's execution knobs. The context cancels
	// index scans between shards; implementations must return promptly
	// once it is done.
	run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error)
}

// Rewrite is the combiner-dependent predicate the optimizer injects into a
// seeker's SQL (§VII-B): restrict to, or exclude, previously discovered
// table ids.
type Rewrite struct {
	mode int // 0 none, 1 include, 2 exclude
	ids  []int32
}

// NoRewrite leaves the seeker's SQL untouched.
var NoRewrite = Rewrite{}

// IncludeTables restricts a seeker to the given table ids
// (WHERE TableId IN (…), the Intersection rewrite rule).
func IncludeTables(ids []int32) Rewrite { return Rewrite{mode: 1, ids: ids} }

// ExcludeTables excludes the given table ids
// (WHERE TableId NOT IN (…), the Difference rewrite rule).
func ExcludeTables(ids []int32) Rewrite { return Rewrite{mode: 2, ids: ids} }

// active reports whether the rewrite changes the SQL.
func (r Rewrite) active() bool { return r.mode != 0 }

// predicate renders the rewrite as an SQL conjunct on the given qualified
// TableId column, with a leading " AND ", or "" for NoRewrite.
func (r Rewrite) predicate(col string) string {
	switch r.mode {
	case 1, 2:
		var sb strings.Builder
		sb.WriteString(" AND ")
		sb.WriteString(col)
		if r.mode == 2 {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		for i, id := range r.ids {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", id)
		}
		sb.WriteString(")")
		return sb.String()
	default:
		return ""
	}
}

// quoteList renders string values as a SQL literal list.
func quoteList(values []string) string {
	var sb strings.Builder
	for i, v := range values {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("'")
		sb.WriteString(strings.ReplaceAll(v, "'", "''"))
		sb.WriteString("'")
	}
	return sb.String()
}

// distinct removes duplicates preserving first-appearance order.
func distinct(values []string) []string {
	seen := make(map[string]struct{}, len(values))
	out := make([]string, 0, len(values))
	for _, v := range values {
		if v == "" {
			continue
		}
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// ---------------------------------------------------------------- SC / KW

// SCSeeker finds tables with a single column overlapping the input column
// the most (Listing 1).
type SCSeeker struct {
	Values []string
	K      int
	// MinOverlap, when positive, drops tables overlapping on fewer than
	// this many distinct values (a HAVING threshold on Listing 1's GROUP
	// BY — useful to cut long low-overlap tails from join candidates).
	MinOverlap int
}

// NewSC builds a single-column seeker over the input column's values.
func NewSC(values []string, k int) *SCSeeker {
	return &SCSeeker{Values: distinct(values), K: k}
}

// Kind implements Seeker.
func (s *SCSeeker) Kind() SeekerKind { return SC }

// TopK implements Seeker.
func (s *SCSeeker) TopK() int { return s.K }

func (s *SCSeeker) estimate(store *storage.ShardedStore) float64 {
	return workEstimate(len(s.Values), store.AvgFrequency(s.Values), 1)
}

// SQL implements Seeker. The GROUP BY (TableId, ColumnId) pairs are cut at
// the application level to k distinct tables, so no LIMIT is emitted here:
// a LIMIT on column groups could starve tables ranked below duplicated
// (table, column) pairs.
func (s *SCSeeker) SQL(rw Rewrite) string {
	sql := "SELECT TableId, COUNT(DISTINCT CellValue) AS overlap FROM AllTables" +
		" WHERE CellValue IN (" + quoteList(s.Values) + ")" + rw.predicate("TableId") +
		" GROUP BY TableId, ColumnId"
	if s.MinOverlap > 0 {
		sql += fmt.Sprintf(" HAVING COUNT(DISTINCT CellValue) >= %d", s.MinOverlap)
	}
	return sql + " ORDER BY overlap DESC, TableId ASC"
}

func (s *SCSeeker) run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error) {
	stats := RunStats{Kind: SC, Rewritten: rw.active(), Path: PathSQL}
	if len(s.Values) == 0 {
		return nil, stats, nil
	}
	if v.nativeServes(SC) {
		start := time.Now()
		hits, c, err := v.runNativeOverlap(ctx, s.Values, s.K, s.MinOverlap, true, rw)
		if err != nil {
			return nil, stats, err
		}
		stats.Path = PathNative
		stats.Duration = time.Since(start)
		stats.SQLRows = c.sqlRows
		return hits, stats, nil
	}
	res, dur, err := v.execSQL(ctx, s.SQL(rw))
	if err != nil {
		return nil, stats, err
	}
	stats.Duration = dur
	stats.SQLRows = res.NumRows()
	hits := make(Hits, 0, res.NumRows())
	for i := 0; i < res.NumRows(); i++ {
		tid, _ := res.Cell(i, 0).AsInt()
		overlap, _ := res.Cell(i, 1).AsFloat()
		hits = append(hits, TableHit{TableID: int32(tid), Score: overlap})
	}
	return topK(dedupeBest(hits), s.K), stats, nil
}

// KWSeeker finds tables overlapping a keyword set anywhere in the table
// (§IV-A2): the SC seeker without the ColumnId grouping.
type KWSeeker struct {
	Keywords []string
	K        int
	// MinOverlap, when positive, drops tables matching fewer than this
	// many distinct keywords.
	MinOverlap int
}

// NewKW builds a keyword seeker.
func NewKW(keywords []string, k int) *KWSeeker {
	return &KWSeeker{Keywords: distinct(keywords), K: k}
}

// Kind implements Seeker.
func (s *KWSeeker) Kind() SeekerKind { return KW }

// TopK implements Seeker.
func (s *KWSeeker) TopK() int { return s.K }

func (s *KWSeeker) estimate(store *storage.ShardedStore) float64 {
	return workEstimate(len(s.Keywords), store.AvgFrequency(s.Keywords), 1)
}

// SQL implements Seeker.
func (s *KWSeeker) SQL(rw Rewrite) string {
	sql := "SELECT TableId, COUNT(DISTINCT CellValue) AS overlap FROM AllTables" +
		" WHERE CellValue IN (" + quoteList(s.Keywords) + ")" + rw.predicate("TableId") +
		" GROUP BY TableId"
	if s.MinOverlap > 0 {
		sql += fmt.Sprintf(" HAVING COUNT(DISTINCT CellValue) >= %d", s.MinOverlap)
	}
	sql += " ORDER BY overlap DESC, TableId ASC"
	if s.K >= 0 {
		sql += fmt.Sprintf(" LIMIT %d", s.K)
	}
	return sql
}

func (s *KWSeeker) run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error) {
	stats := RunStats{Kind: KW, Rewritten: rw.active(), Path: PathSQL}
	if len(s.Keywords) == 0 {
		return nil, stats, nil
	}
	if v.nativeServes(KW) {
		start := time.Now()
		hits, c, err := v.runNativeOverlap(ctx, s.Keywords, s.K, s.MinOverlap, false, rw)
		if err != nil {
			return nil, stats, err
		}
		stats.Path = PathNative
		stats.Duration = time.Since(start)
		stats.SQLRows = c.sqlRows
		return hits, stats, nil
	}
	res, dur, err := v.execSQL(ctx, s.SQL(rw))
	if err != nil {
		return nil, stats, err
	}
	stats.Duration = dur
	stats.SQLRows = res.NumRows()
	hits := make(Hits, 0, res.NumRows())
	for i := 0; i < res.NumRows(); i++ {
		tid, _ := res.Cell(i, 0).AsInt()
		overlap, _ := res.Cell(i, 1).AsFloat()
		hits = append(hits, TableHit{TableID: int32(tid), Score: overlap})
	}
	// The SQL already groups per table, but each shard contributes its own
	// top-k; re-rank across the merged partials (a no-op re-sort on a
	// single shard, whose SQL ordered identically).
	return topK(hits, s.K), stats, nil
}

// ---------------------------------------------------------------- MC

// MCSeeker discovers tables joinable on a composite key: candidate rows
// must contain a whole query tuple (Listing 2 plus XASH filtering and exact
// validation, §VI).
type MCSeeker struct {
	// Tuples holds the query rows; each row lists the composite-key values
	// in column order. All rows must have the same width.
	Tuples [][]string
	K      int
}

// NewMC builds a multi-column seeker from query rows.
func NewMC(tuples [][]string, k int) *MCSeeker {
	cp := make([][]string, len(tuples))
	for i, t := range tuples {
		cp[i] = append([]string(nil), t...)
	}
	return &MCSeeker{Tuples: cp, K: k}
}

// Kind implements Seeker.
func (s *MCSeeker) Kind() SeekerKind { return MC }

// TopK implements Seeker.
func (s *MCSeeker) TopK() int { return s.K }

// width returns the composite key width.
func (s *MCSeeker) width() int {
	if len(s.Tuples) == 0 {
		return 0
	}
	return len(s.Tuples[0])
}

// columnValues returns the distinct values of query column i.
func (s *MCSeeker) columnValues(i int) []string {
	vals := make([]string, 0, len(s.Tuples))
	for _, t := range s.Tuples {
		if i < len(t) {
			vals = append(vals, t[i])
		}
	}
	return distinct(vals)
}

// estimate multiplies the per-column average frequencies because the SQL
// joins the per-column index hits (§VII-B).
func (s *MCSeeker) estimate(store *storage.ShardedStore) float64 {
	x := s.width()
	freq := 1.0
	card := 0
	for i := 0; i < x; i++ {
		vals := s.columnValues(i)
		card += len(vals)
		freq *= store.AvgFrequency(vals)
	}
	return workEstimate(card, freq, x)
}

// SQL implements Seeker: the first phase of the MC seeker (Listing 2),
// joining per-column index hits on (TableId, RowId). The rewrite predicate
// lands in the first subquery, which bounds every join result.
func (s *MCSeeker) SQL(rw Rewrite) string {
	x := s.width()
	if x == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("SELECT q0.TableId AS TableId, q0.RowId AS RowId,")
	sb.WriteString(" q0.SuperKeyLo AS SuperKeyLo, q0.SuperKeyHi AS SuperKeyHi FROM ")
	for i := 0; i < x; i++ {
		if i > 0 {
			sb.WriteString(" INNER JOIN ")
		}
		fmt.Fprintf(&sb, "(SELECT * FROM AllTables WHERE CellValue IN (%s)", quoteList(s.columnValues(i)))
		if i == 0 {
			sb.WriteString(rw.predicate("TableId"))
		}
		fmt.Fprintf(&sb, ") AS q%d", i)
		if i > 0 {
			fmt.Fprintf(&sb, " ON q0.TableId = q%d.TableId AND q0.RowId = q%d.RowId", i, i)
		}
	}
	return sb.String()
}

// run executes the MC seeker against the view's pinned snapshot (seekers
// only run inside Engine.Run / Engine.RunSeeker).
func (s *MCSeeker) run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error) {
	stats := RunStats{Kind: MC, Rewritten: rw.active(), Path: PathSQL}
	if s.width() == 0 || len(s.Tuples) == 0 {
		return nil, stats, nil
	}
	if v.nativeServes(MC) {
		start := time.Now()
		hits, c, err := v.runNativeMC(ctx, s, rw)
		if err != nil {
			return nil, stats, err
		}
		stats.Path = PathNative
		stats.Duration = time.Since(start)
		stats.SQLRows = c.sqlRows
		stats.Candidates = c.candidates
		stats.Validated = c.validated
		return hits, stats, nil
	}
	res, dur, err := v.execSQL(ctx, s.SQL(rw))
	if err != nil {
		return nil, stats, err
	}
	stats.Duration = dur
	stats.SQLRows = res.NumRows()

	// Pre-hash the query tuples once.
	tupleKeys := make([]xash.Key, len(s.Tuples))
	for i, t := range s.Tuples {
		tupleKeys[i] = xash.HashRow(t)
	}

	type rowKey struct{ tid, rid int32 }
	seen := make(map[rowKey]struct{}, res.NumRows())
	matchedRows := make(map[int32]float64) // table id -> joinable row count
	start := time.Now()
	for i := 0; i < res.NumRows(); i++ {
		tidI, _ := res.Cell(i, 0).AsInt()
		ridI, _ := res.Cell(i, 1).AsInt()
		rk := rowKey{int32(tidI), int32(ridI)}
		if _, dup := seen[rk]; dup {
			continue
		}
		seen[rk] = struct{}{}
		loI, _ := res.Cell(i, 2).AsInt()
		hiI, _ := res.Cell(i, 3).AsInt()
		super := xash.Key{Lo: uint64(loI), Hi: uint64(hiI)}

		// XASH bloom filter: some query tuple must be fully covered.
		candidateTuples := make([]int, 0, 2)
		for ti, tk := range tupleKeys {
			if super.Contains(tk) {
				candidateTuples = append(candidateTuples, ti)
			}
		}
		if len(candidateTuples) == 0 {
			continue
		}
		stats.Candidates++

		// Exact validation at the application level: every value of the
		// tuple must occur in the candidate row.
		row := v.sn.store.ReconstructRow(rk.tid, rk.rid)
		cells := make(map[string]struct{}, len(row))
		for _, c := range row {
			if c != "" {
				cells[c] = struct{}{}
			}
		}
		valid := false
		for _, ti := range candidateTuples {
			all := true
			for _, v := range s.Tuples[ti] {
				if v == "" {
					continue
				}
				if _, ok := cells[v]; !ok {
					all = false
					break
				}
			}
			if all {
				valid = true
				break
			}
		}
		if valid {
			stats.Validated++
			matchedRows[rk.tid]++
		}
	}
	stats.Duration += time.Since(start)

	hits := make(Hits, 0, len(matchedRows))
	for tid, n := range matchedRows {
		hits = append(hits, TableHit{TableID: tid, Score: n})
	}
	return topK(hits, s.K), stats, nil
}

// ---------------------------------------------------------------- C

// CorrelationSeeker finds tables joinable on a key column that contain a
// numeric column correlating with the input target, ranked by |QCR|
// (Listing 3).
type CorrelationSeeker struct {
	// Keys are the join-key values, paired index-wise with Targets.
	Keys []string
	// Targets is the numeric target column.
	Targets []float64
	K       int
}

// NewCorrelation builds a correlation seeker from a (join key, target)
// column pair; the two slices are paired by position and truncated to the
// shorter length.
func NewCorrelation(keys []string, targets []float64, k int) *CorrelationSeeker {
	n := len(keys)
	if len(targets) < n {
		n = len(targets)
	}
	return &CorrelationSeeker{
		Keys:    append([]string(nil), keys[:n]...),
		Targets: append([]float64(nil), targets[:n]...),
		K:       k,
	}
}

// Kind implements Seeker.
func (s *CorrelationSeeker) Kind() SeekerKind { return C }

// TopK implements Seeker.
func (s *CorrelationSeeker) TopK() int { return s.K }

func (s *CorrelationSeeker) estimate(store *storage.ShardedStore) float64 {
	return workEstimate(len(s.Keys), store.AvgFrequency(s.Keys), 2)
}

// split partitions the join keys by their target's quadrant bit: k0 below
// the target mean, k1 at or above. The split happens while parsing the
// input, before the query is issued (§VI).
func (s *CorrelationSeeker) split() (k0, k1 []string) {
	mean := qcr.Mean(s.Targets)
	for i, key := range s.Keys {
		if key == "" {
			continue
		}
		if qcr.QuadrantBit(s.Targets[i], mean) == 1 {
			k1 = append(k1, key)
		} else {
			k0 = append(k0, key)
		}
	}
	return distinct(k0), distinct(k1)
}

// SQL implements Seeker: Listing 3 with the QCR score of §VI computed as
// (2·SUM(agreeing pairs) − COUNT(*)) / COUNT(*).
func (s *CorrelationSeeker) SQL(rw Rewrite) string {
	return s.sqlWithH(rw, DefaultSampleH)
}

func (s *CorrelationSeeker) sqlWithH(rw Rewrite, h int) string {
	k0, k1 := s.split()
	agree := make([]string, 0, 2)
	if len(k0) > 0 {
		agree = append(agree, "(keys.CellValue IN ("+quoteList(k0)+") AND nums.Quadrant = 0)")
	}
	if len(k1) > 0 {
		agree = append(agree, "(keys.CellValue IN ("+quoteList(k1)+") AND nums.Quadrant = 1)")
	}
	cond := strings.Join(agree, " OR ")
	if cond == "" {
		cond = "FALSE"
	}
	all := append(append([]string(nil), k0...), k1...)
	return fmt.Sprintf(
		"SELECT keys.TableId AS TableId,"+
			" (2 * SUM((%s)::int) - COUNT(*)) / COUNT(*) AS qcr"+
			" FROM (SELECT * FROM AllTables WHERE RowId < %d AND CellValue IN (%s)%s) AS keys"+
			" INNER JOIN (SELECT * FROM AllTables WHERE RowId < %d AND Quadrant IS NOT NULL) AS nums"+
			" ON keys.TableId = nums.TableId AND keys.RowId = nums.RowId AND keys.ColumnId <> nums.ColumnId"+
			" GROUP BY keys.TableId, nums.ColumnId, keys.ColumnId"+
			" ORDER BY ABS(qcr) DESC, TableId ASC",
		cond, h, quoteList(all), rw.predicate("TableId"), h)
}

func (s *CorrelationSeeker) run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error) {
	stats := RunStats{Kind: C, Rewritten: rw.active(), Path: PathSQL}
	if len(s.Keys) == 0 {
		return nil, stats, nil
	}
	h := v.SampleH
	if h <= 0 {
		h = DefaultSampleH
	}
	if v.nativeServes(C) {
		k0, k1 := s.split()
		if len(k0)+len(k1) > 0 {
			start := time.Now()
			hits, c, err := v.runNativeCorrelation(ctx, k0, k1, s.K, int32(h), rw)
			if err != nil {
				return nil, stats, err
			}
			stats.Path = PathNative
			stats.Duration = time.Since(start)
			stats.SQLRows = c.sqlRows
			return hits, stats, nil
		}
		// Every key is empty: fall through so both paths degenerate
		// identically (the SQL renders `CellValue IN ()`).
	}
	res, dur, err := v.execSQL(ctx, s.sqlWithH(rw, h))
	if err != nil {
		return nil, stats, err
	}
	stats.Duration = dur
	stats.SQLRows = res.NumRows()
	hits := make(Hits, 0, res.NumRows())
	for i := 0; i < res.NumRows(); i++ {
		tid, _ := res.Cell(i, 0).AsInt()
		score, _ := res.Cell(i, 1).AsFloat()
		if score < 0 {
			score = -score
		}
		hits = append(hits, TableHit{TableID: int32(tid), Score: score})
	}
	return topK(dedupeBest(hits), s.K), stats, nil
}
