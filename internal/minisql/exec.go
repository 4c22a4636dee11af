package minisql

import (
	"sort"
	"strings"
)

// Result is a materialized query result in columnar form: one Value vector
// per output column plus a row count. The batched executor below builds
// these vectors directly — predicates run against single-row staging
// buffers and survivors append column-wise, so a filtered scan allocates a
// handful of vectors instead of one slice per row. It implements Relation,
// so results can feed further queries, and evalSrc, so expressions read it
// directly.
//
// A nil column vector is a NULL column: projection pushdown leaves the
// positions a query never references unmaterialized, and every read path
// treats them as uniformly NULL.
type Result struct {
	cols  []string
	quals []string
	vals  [][]Value // vals[col][row]; nil vector = all-NULL column
	n     int
}

// Columns implements Relation.
func (r *Result) Columns() []string { return r.cols }

// NumRows implements Relation.
func (r *Result) NumRows() int { return r.n }

// Cell implements Relation.
func (r *Result) Cell(row, col int) Value {
	if v := r.vals[col]; v != nil {
		return v[row]
	}
	return Null
}

// at implements evalSrc.
func (r *Result) at(row, col int) Value { return r.Cell(row, col) }

// resolve implements evalSrc.
func (r *Result) resolve(qual, name string) (int, error) {
	return resolveCol(r.cols, r.quals, qual, name)
}

// resolveCol finds the position of a (possibly qualified) column name,
// case-insensitively. Unqualified names matching several columns are
// ambiguous unless all matches share the position.
func resolveCol(cols, quals []string, qual, name string) (int, error) {
	found := -1
	for i := range cols {
		if !strings.EqualFold(cols[i], name) {
			continue
		}
		if qual != "" && !strings.EqualFold(quals[i], qual) {
			continue
		}
		if found >= 0 {
			return 0, errorf("ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, errorf("unknown column %s.%s", qual, name)
		}
		return 0, errorf("unknown column %s", name)
	}
	return found, nil
}

// newResult allocates an empty columnar result with the given header.
func newResult(cols, quals []string) *Result {
	return &Result{cols: cols, quals: quals, vals: make([][]Value, len(cols))}
}

// appendRow appends one staged row, materializing only the columns the
// mask wants (nil mask = all).
func (r *Result) appendRow(buf []Value, wanted []bool) {
	for c := range r.vals {
		if wanted == nil || wanted[c] {
			r.vals[c] = append(r.vals[c], buf[c])
		}
	}
	r.n++
}

// gatherRows materializes the selected rows, in selection order, as a new
// result. NULL columns stay unmaterialized.
func (r *Result) gatherRows(sel []int) *Result {
	out := &Result{cols: r.cols, quals: r.quals, vals: make([][]Value, len(r.vals)), n: len(sel)}
	for c, v := range r.vals {
		if v == nil {
			continue
		}
		g := make([]Value, len(sel))
		for i, row := range sel {
			g[i] = v[row]
		}
		out.vals[c] = g
	}
	return out
}

// truncate returns the first n rows. Column vectors are re-sliced, not
// copied — results are never mutated in place, so sharing is safe.
func (r *Result) truncate(n int) *Result {
	out := &Result{cols: r.cols, quals: r.quals, vals: make([][]Value, len(r.vals)), n: n}
	for c, v := range r.vals {
		if v != nil {
			out.vals[c] = v[:n]
		}
	}
	return out
}

// ExecSQL parses and executes a statement against the catalog.
func ExecSQL(cat *Catalog, sql string) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Exec(cat, q)
}

// Exec executes a parsed query against the catalog with the batched
// columnar pipeline. ExecSQLRowAtATime runs the same query through the
// frozen row-at-a-time reference executor (rowexec.go); the two must agree
// exactly.
func Exec(cat *Catalog, q *Query) (*Result, error) {
	src, err := execSource(cat, q)
	if err != nil {
		return nil, err
	}
	needsAgg := len(q.GroupBy) > 0
	if !needsAgg {
		for _, it := range q.Select {
			if hasAggregate(it.Expr) {
				needsAgg = true
				break
			}
		}
	}
	var out *Result
	if needsAgg {
		out, err = execAggregate(q, src)
	} else {
		out, err = execProject(q, src)
	}
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		out = dedupeResult(out)
	}
	if q.Limit >= 0 && out.n > q.Limit {
		out = out.truncate(q.Limit)
	}
	return out, nil
}

// dedupeResult removes duplicate output rows (SELECT DISTINCT), keeping
// the first occurrence so ORDER BY ranking is preserved. Keys are built in
// one reused buffer; only first-seen rows pay a key-string allocation (map
// lookups with string(kb) convert without allocating).
func dedupeResult(res *Result) *Result {
	if res.n == 0 {
		return res
	}
	seen := make(map[string]struct{}, res.n)
	sel := make([]int, 0, res.n)
	var kb []byte
	for r := 0; r < res.n; r++ {
		kb = kb[:0]
		for c := range res.vals {
			kb = res.Cell(r, c).AppendGroupKey(kb)
			kb = append(kb, 0x1f)
		}
		if _, dup := seen[string(kb)]; dup {
			continue
		}
		seen[string(kb)] = struct{}{}
		sel = append(sel, r)
	}
	if len(sel) == res.n {
		return res
	}
	return res.gatherRows(sel)
}

// execSource evaluates FROM, JOINs, and WHERE, returning the filtered
// source relation with qualified columns.
func execSource(cat *Catalog, q *Query) (*Result, error) {
	if len(q.Joins) == 0 {
		// Projection pushdown: a single-source query only touches the
		// columns it references, so the scan can skip materializing the
		// rest — the physical advantage of the column layout.
		return execFromItem(cat, q.From, q.Where, collectNeeded(q))
	}
	left, err := execFromItem(cat, q.From, nil, nil)
	if err != nil {
		return nil, err
	}
	for _, j := range q.Joins {
		right, err := execFromItem(cat, j.Right, nil, nil)
		if err != nil {
			return nil, err
		}
		left, err = hashJoin(left, right, j.On)
		if err != nil {
			return nil, err
		}
	}
	if q.Where == nil {
		return left, nil
	}
	return filterResult(left, q.Where)
}

// neededCols names the columns a query references; nil means "all".
type neededCols map[string]struct{}

// collectNeeded gathers every column name referenced anywhere in q, or nil
// when SELECT * forces full materialization. Qualifiers are dropped: a
// single-source query has one qualifier, so names suffice.
func collectNeeded(q *Query) neededCols {
	if q.Star {
		return nil
	}
	need := make(neededCols)
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *ColRef:
			need[strings.ToLower(x.Name)] = struct{}{}
		case *Bin:
			walk(x.L)
			walk(x.R)
		case *Un:
			walk(x.X)
		case *Cast:
			walk(x.X)
		case *IsNull:
			walk(x.X)
		case *In:
			walk(x.X)
			for _, le := range x.List {
				walk(le)
			}
		case *Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	for _, it := range q.Select {
		walk(it.Expr)
	}
	walk(q.Where)
	walk(q.Having)
	for _, g := range q.GroupBy {
		walk(g)
	}
	for _, o := range q.OrderBy {
		walk(o.Expr)
	}
	return need
}

func execFromItem(cat *Catalog, f FromItem, where Expr, need neededCols) (*Result, error) {
	if f.Sub != nil {
		res, err := Exec(cat, f.Sub)
		if err != nil {
			return nil, err
		}
		// Requalify all output columns with the subquery alias.
		quals := make([]string, len(res.cols))
		for i := range quals {
			quals[i] = f.Alias
		}
		res = &Result{cols: res.cols, quals: quals, vals: res.vals, n: res.n}
		if where == nil {
			return res, nil
		}
		return filterResult(res, where)
	}
	rel, ok := cat.Lookup(f.Table)
	if !ok {
		return nil, errorf("unknown relation %q", f.Table)
	}
	qual := f.Alias
	if qual == "" {
		qual = f.Table
	}
	return scanBase(rel, qual, where, need)
}

// rowView is the single-row staging surface of the batched scan: the
// predicate evaluates against the buffer the current candidate row was
// staged into, before any output materialization.
type rowView struct {
	cols, quals []string
	buf         []Value
}

func (v *rowView) NumRows() int        { return 1 }
func (v *rowView) at(_, col int) Value { return v.buf[col] }
func (v *rowView) resolve(qual, name string) (int, error) {
	return resolveCol(v.cols, v.quals, qual, name)
}

// scanBase materializes the rows of a base relation that satisfy where
// into column vectors, using an index access path for `col IN (literals)`
// conjuncts when the relation supports one. When need is non-nil, only the
// named columns are materialized; unreferenced positions stay NULL columns
// and are never read from the relation (projection pushdown).
func scanBase(rel Relation, qual string, where Expr, need neededCols) (*Result, error) {
	cols := rel.Columns()
	quals := make([]string, len(cols))
	for i := range quals {
		quals[i] = qual
	}
	out := newResult(append([]string(nil), cols...), quals)
	wanted := make([]bool, len(cols))
	for i, c := range cols {
		if need == nil {
			wanted[i] = true
			continue
		}
		_, wanted[i] = need[strings.ToLower(c)]
	}

	var candidates []int
	fullScan := true
	if where != nil {
		if ix, ok := rel.(IndexedRelation); ok {
			if rows, ok := bestIndexPath(ix, cols, qual, where); ok {
				candidates = rows
				fullScan = false
			}
		}
	}

	// Materialization cost control: when the emitted row count is known up
	// front (index access path: the posting lengths bound it; unfiltered
	// scan: the relation size), each wanted column vector gets an exact
	// capacity hint — the columnar counterpart of the old executor's
	// chunked row arenas, with one allocation per column instead of one
	// arena chunk per 512 rows.
	expect := -1
	if !fullScan {
		expect = len(candidates)
	} else if where == nil {
		expect = rel.NumRows()
	}
	if expect > 0 {
		for c := range cols {
			if wanted[c] {
				out.vals[c] = make([]Value, 0, expect)
			}
		}
	}

	// Tombstone visibility: rows a Tombstoned relation marks dead are
	// skipped on every access path, so logically deleted data can never
	// satisfy a predicate or reach a result.
	var visible func(int) bool
	if tr, ok := rel.(Tombstoned); ok && tr.HasTombstones() {
		visible = tr.RowVisible
	}

	buf := make([]Value, len(cols))
	ctx := &evalCtx{res: &rowView{cols: out.cols, quals: out.quals, buf: buf}}
	emit := func(r int) error {
		if visible != nil && !visible(r) {
			return nil
		}
		for c := range cols {
			if wanted[c] {
				buf[c] = rel.Cell(r, c)
			} else {
				buf[c] = Null
			}
		}
		if where != nil {
			v, err := eval(where, ctx)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
		out.appendRow(buf, wanted)
		return nil
	}
	if fullScan {
		n := rel.NumRows()
		for r := 0; r < n; r++ {
			if err := emit(r); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range candidates {
			if err := emit(r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// bestIndexPath inspects the conjuncts of where for `col IN (lit,…)`
// predicates on indexed columns of rel and returns the smallest candidate
// row set among them.
func bestIndexPath(rel IndexedRelation, cols []string, qual string, where Expr) ([]int, bool) {
	var best []int
	found := false
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Bin:
			if x.Op == "AND" {
				walk(x.L)
				walk(x.R)
				return
			}
			if x.Op != "=" {
				return
			}
			// col = literal is a one-element IN.
			cr, okc := x.L.(*ColRef)
			lit, okl := x.R.(*Lit)
			if !okc || !okl {
				cr, okc = x.R.(*ColRef)
				lit, okl = x.L.(*Lit)
			}
			if !okc || !okl {
				return
			}
			tryIndex(rel, cols, qual, cr, []Value{lit.V}, &best, &found)
		case *In:
			if x.Neg {
				return
			}
			cr, ok := x.X.(*ColRef)
			if !ok {
				return
			}
			vals := make([]Value, 0, len(x.List))
			for _, le := range x.List {
				l, ok := le.(*Lit)
				if !ok {
					return
				}
				vals = append(vals, l.V)
			}
			tryIndex(rel, cols, qual, cr, vals, &best, &found)
		}
	}
	walk(where)
	return best, found
}

func tryIndex(rel IndexedRelation, cols []string, qual string, cr *ColRef, vals []Value, best *[]int, found *bool) {
	if cr.Qual != "" && !strings.EqualFold(cr.Qual, qual) {
		return
	}
	col := -1
	for i, c := range cols {
		if strings.EqualFold(c, cr.Name) {
			col = i
			break
		}
	}
	if col < 0 {
		return
	}
	rows, ok := rel.LookupIn(col, vals)
	if !ok {
		return
	}
	if !*found || len(rows) < len(*best) {
		*best = rows
		*found = true
	}
}

// filterResult evaluates where per row into a selection vector and gathers
// the survivors column-wise.
func filterResult(src *Result, where Expr) (*Result, error) {
	ctx := &evalCtx{res: src}
	sel := make([]int, 0, src.n)
	for r := 0; r < src.n; r++ {
		ctx.row = r
		v, err := eval(where, ctx)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			sel = append(sel, r)
		}
	}
	if len(sel) == src.n {
		return src, nil
	}
	return src.gatherRows(sel), nil
}

// pairView is the staging surface of the join's residual filter: one
// candidate (left row, right row) pair, read through the concatenated
// output schema without materializing the joined row.
type pairView struct {
	cols, quals []string
	left, right *Result
	lr, rr      int
}

func (v *pairView) NumRows() int { return 1 }
func (v *pairView) at(_, col int) Value {
	if col < len(v.left.cols) {
		return v.left.Cell(v.lr, col)
	}
	return v.right.Cell(v.rr, col-len(v.left.cols))
}
func (v *pairView) resolve(qual, name string) (int, error) {
	return resolveCol(v.cols, v.quals, qual, name)
}

// hashJoin executes an inner join. Equality conjuncts between the two
// sides become the hash key; remaining conjuncts are evaluated as a
// residual filter on each candidate pair. Matching pairs accumulate as two
// selection vectors and the output gathers both sides column-wise — no
// per-row slice is ever allocated.
func hashJoin(left, right *Result, on Expr) (*Result, error) {
	type eqPair struct{ l, r int }
	var eqs []eqPair
	var residual []Expr
	var collect func(e Expr) error
	collect = func(e Expr) error {
		if b, ok := e.(*Bin); ok {
			if b.Op == "AND" {
				if err := collect(b.L); err != nil {
					return err
				}
				return collect(b.R)
			}
			if b.Op == "=" {
				lc, lok := b.L.(*ColRef)
				rc, rok := b.R.(*ColRef)
				if lok && rok {
					li, lerr := left.resolve(lc.Qual, lc.Name)
					ri, rerr := right.resolve(rc.Qual, rc.Name)
					if lerr == nil && rerr == nil {
						eqs = append(eqs, eqPair{li, ri})
						return nil
					}
					// Maybe the sides are swapped.
					li2, lerr2 := left.resolve(rc.Qual, rc.Name)
					ri2, rerr2 := right.resolve(lc.Qual, lc.Name)
					if lerr2 == nil && rerr2 == nil {
						eqs = append(eqs, eqPair{li2, ri2})
						return nil
					}
				}
			}
		}
		residual = append(residual, e)
		return nil
	}
	if err := collect(on); err != nil {
		return nil, err
	}

	cols := append(append([]string(nil), left.cols...), right.cols...)
	quals := append(append([]string(nil), left.quals...), right.quals...)
	var resid Expr
	for _, e := range residual {
		if resid == nil {
			resid = e
		} else {
			resid = &Bin{Op: "AND", L: resid, R: e}
		}
	}
	pv := &pairView{cols: cols, quals: quals, left: left, right: right}
	ctx := &evalCtx{res: pv}
	var lsel, rsel []int
	emit := func(lr, rr int) error {
		if resid != nil {
			pv.lr, pv.rr = lr, rr
			v, err := eval(resid, ctx)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
		}
		lsel = append(lsel, lr)
		rsel = append(rsel, rr)
		return nil
	}

	if len(eqs) == 0 {
		// Nested loop for pure residual joins (rare in our dialect).
		for lr := 0; lr < left.n; lr++ {
			for rr := 0; rr < right.n; rr++ {
				if err := emit(lr, rr); err != nil {
					return nil, err
				}
			}
		}
		return gatherJoin(cols, quals, left, right, lsel, rsel), nil
	}

	// Build on the smaller side, probe with the larger. Keys are built in
	// one reused buffer and interned once per distinct key: lookups with
	// string(kb) convert without allocating, so probe rows and repeated
	// build keys cost no key allocation at all.
	buildLeft := left.n < right.n
	build, probe := right, left
	if buildLeft {
		build, probe = left, right
	}
	var kb []byte
	key := func(res *Result, r int) bool {
		kb = kb[:0]
		for _, eq := range eqs {
			col := eq.r
			if res == left {
				col = eq.l
			}
			v := res.Cell(r, col)
			if v.IsNull() {
				return false // NULL never joins
			}
			kb = v.AppendGroupKey(kb)
			kb = append(kb, 0x1f)
		}
		return true
	}
	ids := make(map[string]int, build.n)
	var lists [][]int
	for r := 0; r < build.n; r++ {
		if !key(build, r) {
			continue
		}
		id, ok := ids[string(kb)]
		if !ok {
			id = len(lists)
			ids[string(kb)] = id
			lists = append(lists, nil)
		}
		lists[id] = append(lists[id], r)
	}
	for pr := 0; pr < probe.n; pr++ {
		if !key(probe, pr) {
			continue
		}
		id, ok := ids[string(kb)]
		if !ok {
			continue
		}
		for _, br := range lists[id] {
			lr, rr := pr, br
			if buildLeft {
				lr, rr = br, pr
			}
			if err := emit(lr, rr); err != nil {
				return nil, err
			}
		}
	}
	return gatherJoin(cols, quals, left, right, lsel, rsel), nil
}

// gatherJoin materializes the joined output from the two sides' selection
// vectors, column-wise. NULL columns of either side stay unmaterialized.
func gatherJoin(cols, quals []string, left, right *Result, lsel, rsel []int) *Result {
	out := &Result{cols: cols, quals: quals, vals: make([][]Value, len(cols)), n: len(lsel)}
	for c, v := range left.vals {
		if v == nil {
			continue
		}
		g := make([]Value, len(lsel))
		for i, r := range lsel {
			g[i] = v[r]
		}
		out.vals[c] = g
	}
	lc := len(left.cols)
	for c, v := range right.vals {
		if v == nil {
			continue
		}
		g := make([]Value, len(rsel))
		for i, r := range rsel {
			g[i] = v[r]
		}
		out.vals[lc+c] = g
	}
	return out
}

// execProject evaluates the select list per source row into per-item
// column vectors, applies ORDER BY (which may reference source columns or
// select aliases), and returns the projected result.
func execProject(q *Query, src *Result) (*Result, error) {
	aliases := aliasMap(q)
	if q.Star {
		if len(q.OrderBy) == 0 {
			return src, nil
		}
		ordered, err := orderRows(q, src, src.n, nil, aliases, pushableLimit(q))
		if err != nil {
			return nil, err
		}
		return src.gatherRows(ordered), nil
	}
	cols, quals := outputColumns(q)
	proj := make([][]Value, len(q.Select))
	for i := range proj {
		proj[i] = make([]Value, src.n)
	}
	ctx := &evalCtx{res: src}
	for r := 0; r < src.n; r++ {
		ctx.row = r
		for i, it := range q.Select {
			v, err := eval(it.Expr, ctx)
			if err != nil {
				return nil, err
			}
			proj[i][r] = v
		}
	}
	out := &Result{cols: cols, quals: quals, vals: make([][]Value, len(cols)), n: src.n}
	if len(q.OrderBy) == 0 {
		copy(out.vals, proj)
		return out, nil
	}
	ordered, err := orderRows(q, src, src.n, nil, aliases, pushableLimit(q))
	if err != nil {
		return nil, err
	}
	out.n = len(ordered)
	for i := range proj {
		g := make([]Value, len(ordered))
		for j, r := range ordered {
			g[j] = proj[i][r]
		}
		out.vals[i] = g
	}
	return out, nil
}

// execAggregate groups source rows by the GROUP BY keys (or one implicit
// group) and evaluates select and order expressions per group. Group keys
// are built in one reused buffer; only first-seen groups pay a key-string
// allocation.
func execAggregate(q *Query, src *Result) (*Result, error) {
	if q.Star {
		return nil, errorf("SELECT * cannot be combined with aggregation")
	}
	aliases := aliasMap(q)
	ctx := &evalCtx{res: src, aliases: aliases}

	// Form groups preserving first-seen order for determinism.
	var groups [][]int
	if len(q.GroupBy) == 0 {
		groups = [][]int{identityIndices(src.n)}
	} else {
		index := make(map[string]int)
		var kb []byte
		for r := 0; r < src.n; r++ {
			ctx.row = r
			kb = kb[:0]
			for _, ge := range q.GroupBy {
				v, err := eval(ge, ctx)
				if err != nil {
					return nil, err
				}
				kb = v.AppendGroupKey(kb)
				kb = append(kb, 0x1f)
			}
			gi, ok := index[string(kb)]
			if !ok {
				gi = len(groups)
				index[string(kb)] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], r)
		}
	}

	// HAVING: drop groups whose predicate is not satisfied before
	// projecting and ordering.
	if q.Having != nil {
		kept := groups[:0]
		for _, g := range groups {
			gctx := &evalCtx{res: src, group: g, aliases: aliases}
			v, err := eval(q.Having, gctx)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, g)
			}
		}
		groups = kept
	}

	cols, quals := outputColumns(q)
	proj := make([][]Value, len(q.Select))
	for i := range proj {
		proj[i] = make([]Value, len(groups))
	}
	for gi, g := range groups {
		gctx := &evalCtx{res: src, group: g, aliases: aliases}
		for i, it := range q.Select {
			v, err := eval(it.Expr, gctx)
			if err != nil {
				return nil, err
			}
			proj[i][gi] = v
		}
	}
	order, err := orderRows(q, src, len(groups), groups, aliases, pushableLimit(q))
	if err != nil {
		return nil, err
	}
	out := &Result{cols: cols, quals: quals, vals: make([][]Value, len(cols)), n: len(order)}
	if len(q.OrderBy) == 0 {
		copy(out.vals, proj)
		return out, nil
	}
	for i := range proj {
		g := make([]Value, len(order))
		for j, gi := range order {
			g[j] = proj[i][gi]
		}
		out.vals[i] = g
	}
	return out, nil
}

// orderRows returns the permutation of unit indices 0..n-1 sorted by the
// query's ORDER BY keys. In grouped mode groups[i] gives the member rows of
// unit i; otherwise each unit is the source row with the same index.
//
// limit, when in [0, n), is the query's LIMIT: only that many best units
// are selected (with a bounded heap, O(n log limit)) instead of sorting
// all n — the seekers' `ORDER BY overlap DESC … LIMIT k` stops paying a
// full sort of every candidate table to return k of them. limit < 0 (or
// >= n) keeps the full sort.
//
// Ties under the ORDER BY keys break by ascending unit index — the
// first-seen row/group order — which both the full sort and the partial
// selection apply identically, so results are deterministic and
// limit-insensitive. (The seekers' generated SQL additionally orders by
// TableId ASC explicitly; the index tie-break covers every other query.)
func orderRows(q *Query, src evalSrc, n int, groups [][]int, aliases map[string]Expr, limit int) ([]int, error) {
	if len(q.OrderBy) == 0 {
		return identityIndices(n), nil
	}
	keys := make([][]Value, n)
	flat := make([]Value, n*len(q.OrderBy))
	for unit := 0; unit < n; unit++ {
		ctx := &evalCtx{res: src, aliases: aliases}
		if groups != nil {
			ctx.group = groups[unit]
		} else {
			ctx.row = unit
		}
		ks := flat[unit*len(q.OrderBy) : (unit+1)*len(q.OrderBy)]
		for j, ob := range q.OrderBy {
			v, err := eval(ob.Expr, ctx)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		keys[unit] = ks
	}
	// less is a total order — ORDER BY keys, then unit index — so plain
	// sorting reproduces exactly what a stable sort on the keys alone
	// would, and the heap selection below agrees with the sort.
	less := func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		for j, ob := range q.OrderBy {
			c := ka[j].Compare(kb[j])
			if c == 0 {
				continue
			}
			if ob.Desc {
				return c > 0
			}
			return c < 0
		}
		return a < b
	}
	if limit >= 0 && limit < n {
		return selectTopUnits(n, limit, less), nil
	}
	perm := identityIndices(n)
	sort.Slice(perm, func(a, b int) bool { return less(perm[a], perm[b]) })
	return perm, nil
}

// selectTopUnits picks the k first units under less out of 0..n-1 and
// returns them in sorted order, using a bounded max-heap (the root is the
// worst retained unit) so only k units are ever held.
func selectTopUnits(n, k int, less func(a, b int) bool) []int {
	if k == 0 {
		return nil
	}
	h := make([]int, 0, k)
	siftDown := func(i int) {
		for {
			worst := i
			if l := 2*i + 1; l < len(h) && less(h[worst], h[l]) {
				worst = l
			}
			if r := 2*i + 2; r < len(h) && less(h[worst], h[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			h[i], h[worst] = h[worst], h[i]
			i = worst
		}
	}
	for unit := 0; unit < n; unit++ {
		if len(h) < k {
			h = append(h, unit)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !less(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if less(unit, h[0]) {
			h[0] = unit
			siftDown(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// pushableLimit returns the LIMIT that may be pushed into orderRows' unit
// selection. DISTINCT dedupes after ordering, so its queries must keep the
// full order; Exec re-applies LIMIT after projection either way.
func pushableLimit(q *Query) int {
	if q.Distinct {
		return -1
	}
	return q.Limit
}

func aliasMap(q *Query) map[string]Expr {
	m := make(map[string]Expr)
	for _, it := range q.Select {
		if it.Alias != "" {
			m[it.Alias] = it.Expr
		}
	}
	return m
}

func outputColumns(q *Query) (cols, quals []string) {
	cols = make([]string, len(q.Select))
	quals = make([]string, len(q.Select))
	for i, it := range q.Select {
		if it.Alias != "" {
			cols[i] = it.Alias
		} else if cr, ok := it.Expr.(*ColRef); ok {
			cols[i] = cr.Name
		} else {
			cols[i] = it.Expr.String()
		}
	}
	return cols, quals
}

func identityIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
