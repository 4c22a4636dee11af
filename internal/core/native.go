package core

import (
	"context"
	"sort"
	"sync"

	"blend/internal/storage"
)

// Execution-path labels reported in RunStats.Path and, under WithExplain,
// in PlanResult.PathByNode. They tell operators reading -explain output
// whether a seeker ran on the native posting-list executor or fell back
// to SQL interpretation.
const (
	// PathNative marks a run on the native posting-list fast path: no SQL
	// was generated, parsed, or interpreted.
	PathNative = "native"
	// PathSQL marks a run through SQL generation and the minisql
	// interpreter.
	PathSQL = "sql"
	// PathANN marks the semantic seeker's embedding-index search, which
	// has no relational form on either path.
	PathANN = "ann"
)

// The native executor answers the hot seeker family
//
//	SELECT TableId, COUNT(DISTINCT CellValue) … GROUP BY TableId[, ColumnId]
//	ORDER BY overlap DESC, TableId ASC LIMIT k
//
// (single-column joinability, keyword/multi-column overlap, and the
// union-compatibility probes built from them) directly over the sharded
// store: one dictionary lookup per query value, a block-at-a-time posting
// cursor feeding per-table counters, a bounded k-size selection per shard,
// and a deterministic merge across shards. No SQL string is built, nothing is
// parsed, and the per-row work is integer comparisons against pooled
// counter buffers — the JOSIE/MATE-style merge execution the paper's SQL
// formulation abstracts over.

// tableFilter is a Rewrite compiled to an O(1) membership test on table
// ids — the native form of the optimizer's `TableId [NOT] IN (…)`
// predicate.
type tableFilter struct {
	mode int // 0 none, 1 include, 2 exclude
	ids  map[int32]struct{}
}

// compileFilter builds the native predicate for a rewrite.
func compileFilter(rw Rewrite) tableFilter {
	f := tableFilter{mode: rw.mode}
	if rw.mode != 0 {
		f.ids = make(map[int32]struct{}, len(rw.ids))
		for _, id := range rw.ids {
			f.ids[id] = struct{}{}
		}
	}
	return f
}

// admit reports whether the filter keeps entries of the given table.
func (f *tableFilter) admit(tid int32) bool {
	switch f.mode {
	case 1:
		_, ok := f.ids[tid]
		return ok
	case 2:
		_, ok := f.ids[tid]
		return !ok
	default:
		return true
	}
}

// scGroup is one (TableId, ColumnId) aggregation cell of the SC shape.
type scGroup struct {
	count int32  // COUNT(DISTINCT CellValue) so far
	mark  uint32 // last value epoch that contributed (dedup within a value)
}

// overlapScratch holds the pooled per-scan counter state. The count/mark
// arrays are indexed by global table id; touched records which ids were
// written so release() resets in O(touched) instead of O(tables). groups
// carries the per-(table, column) cells of the SC shape; clear() keeps its
// buckets allocated across scans. blk is the posting block every cursor
// of the scan fills.
type overlapScratch struct {
	count   []int32
	mark    []uint32
	touched []int32
	groups  map[uint64]scGroup
	blk     storage.PostingBlock
}

var overlapPool = sync.Pool{New: func() any {
	return &overlapScratch{groups: make(map[uint64]scGroup)}
}}

// grab fetches a scratch sized for numTables table ids.
func grabScratch(numTables int) *overlapScratch {
	sc := overlapPool.Get().(*overlapScratch)
	if len(sc.count) < numTables {
		sc.count = make([]int32, numTables)
		sc.mark = make([]uint32, numTables)
	}
	return sc
}

// release resets the touched counters and returns the scratch to the pool.
func (sc *overlapScratch) release() {
	for _, tid := range sc.touched {
		sc.count[tid] = 0
		sc.mark[tid] = 0
	}
	sc.touched = sc.touched[:0]
	if len(sc.groups) > 0 {
		clear(sc.groups)
	}
	overlapPool.Put(sc)
}

// bump counts one distinct query value for table tid. epoch identifies the
// value, so repeated occurrences of the same value in a table count once —
// COUNT(DISTINCT CellValue) in integer space.
func (sc *overlapScratch) bump(tid int32, epoch uint32) {
	if sc.mark[tid] == epoch {
		return
	}
	sc.mark[tid] = epoch
	if sc.count[tid] == 0 {
		sc.touched = append(sc.touched, tid)
	}
	sc.count[tid]++
}

// hitBetter is the shared result order of both execution paths: overlap
// score descending, TableId ascending as the deterministic tie-break.
func hitBetter(a, b TableHit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.TableID < b.TableID
}

// topkHeap is a bounded min-heap under hitBetter: the root is the worst
// retained hit, so a better candidate replaces it in O(log k). It keeps a
// shard's top-k without sorting (or even materializing) the full table set.
type topkHeap struct {
	h Hits
	k int
}

// offer inserts a candidate, evicting the current worst once full.
func (t *topkHeap) offer(h TableHit) {
	if t.k == 0 {
		return
	}
	if t.k > 0 && len(t.h) == t.k {
		if !hitBetter(h, t.h[0]) {
			return
		}
		t.h[0] = h
		t.siftDown(0)
		return
	}
	t.h = append(t.h, h)
	// Sift up.
	i := len(t.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if hitBetter(t.h[p], t.h[i]) {
			t.h[p], t.h[i] = t.h[i], t.h[p]
			i = p
			continue
		}
		break
	}
}

func (t *topkHeap) siftDown(i int) {
	n := len(t.h)
	for {
		worst := i
		if l := 2*i + 1; l < n && hitBetter(t.h[worst], t.h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && hitBetter(t.h[worst], t.h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.h[i], t.h[worst] = t.h[worst], t.h[i]
		i = worst
	}
}

// sorted drains the heap into best-first order.
func (t *topkHeap) sorted() Hits {
	out := t.h
	sort.Slice(out, func(a, b int) bool { return hitBetter(out[a], out[b]) })
	return out
}

// dedupeValues removes duplicate query values (the SQL IN list and
// COUNT(DISTINCT …) are insensitive to them; the epoch counters are not).
// Seekers built through the constructors are already distinct, so the
// common case allocates nothing beyond the small set map.
func dedupeValues(values []string) []string {
	seen := make(map[string]struct{}, len(values))
	dup := false
	for _, v := range values {
		if _, ok := seen[v]; ok {
			dup = true
			break
		}
		seen[v] = struct{}{}
	}
	if !dup {
		return values
	}
	out := make([]string, 0, len(seen))
	clear(seen)
	for _, v := range values {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// scanShardOverlap executes the overlap aggregation against shard sh of s
// and returns its top-k hits (best first) plus the number of aggregation
// groups (the rows the equivalent GROUP BY would have produced on this
// shard).
func scanShardOverlap(ctx context.Context, s *storage.ShardedStore, sh int, values []string,
	k int, perColumn bool, f *tableFilter, numTables int) (Hits, scanCounts, error) {

	sc := grabScratch(numTables)
	defer sc.release()

	blk := &sc.blk
	for vi, v := range values {
		if err := ctx.Err(); err != nil {
			return nil, scanCounts{}, err
		}
		epoch := uint32(vi + 1)
		cur := s.ShardPostings(sh, v)
		for cur.Next(blk, false) {
			for i, tid := range blk.TID[:blk.N] {
				if !f.admit(tid) {
					continue
				}
				if !perColumn {
					sc.bump(tid, epoch)
					continue
				}
				key := uint64(uint32(tid))<<32 | uint64(uint32(blk.CID[i]))
				g := sc.groups[key]
				if g.mark == epoch {
					continue
				}
				g.mark = epoch
				g.count++
				sc.groups[key] = g
			}
		}
	}

	groups := len(sc.touched)
	if perColumn {
		// Reduce (table, column) cells to the best column per table — the
		// application-level cut the SQL path performs with dedupeBest.
		groups = len(sc.groups)
		for key, g := range sc.groups {
			tid := int32(key >> 32)
			if g.count > sc.count[tid] {
				if sc.count[tid] == 0 {
					sc.touched = append(sc.touched, tid)
				}
				sc.count[tid] = g.count
			}
		}
	}

	heap := topkHeap{k: k}
	for _, tid := range sc.touched {
		heap.offer(TableHit{TableID: tid, Score: float64(sc.count[tid])})
	}
	return heap.sorted(), scanCounts{sqlRows: groups}, nil
}

// runNativeOverlap executes the SC (perColumn) / KW seeker shape on the
// native fast path. The returned sqlRows count equals RunStats.SQLRows of
// the SQL path: the rows the generated SQL returns.
func (v *view) runNativeOverlap(ctx context.Context, values []string,
	k int, perColumn bool, rw Rewrite) (Hits, scanCounts, error) {

	values = dedupeValues(values)
	f := compileFilter(rw)
	store := v.sn.store
	numTables := store.NumTables()
	hits, c, err := v.runShards(ctx, k, func(ctx context.Context, sh int) (Hits, scanCounts, error) {
		return scanShardOverlap(ctx, store, sh, values, k, perColumn, &f, numTables)
	})
	if !perColumn && k >= 0 && c.sqlRows > k {
		// The KW SQL ends in LIMIT k over all groups of the one relation;
		// clamp the summed group count so SQLRows matches its row count.
		c.sqlRows = k
	}
	return hits, c, err
}

// scanCounts is the work a native shard scan reports, summed across
// shards: the rows the equivalent SQL would return (RunStats.SQLRows) and,
// for MC, the validation funnel behind them — the rows surviving the XASH
// filter and the rows surviving exact validation.
type scanCounts struct {
	sqlRows, candidates, validated int
}

// runShards is the one shard fan-out of the native executors: it runs scan
// (one seeker shape against one shard of the pinned store, given by index,
// returning that shard's top-k, best first) on every shard, then merges
// the partials with the (score desc, TableId asc) order the SQL path's
// topK applies and sums their counts, so both paths return identical
// results. Tables never span shards, so the per-shard counts partition
// exactly. A single shard runs inline. Otherwise every shard runs on its
// own goroutine holding a slot of the engine's shard semaphore (or giving
// up if ctx is canceled while waiting), and any shard error — cancellation
// included — fails the whole run.
func (v *view) runShards(ctx context.Context, k int,
	scan func(ctx context.Context, sh int) (Hits, scanCounts, error)) (Hits, scanCounts, error) {

	n := v.sn.store.NumShards()
	if n == 1 {
		hits, c, err := scan(ctx, 0)
		if err != nil {
			return nil, c, err
		}
		if hits == nil {
			hits = Hits{} // match the SQL path's empty-but-non-nil result
		}
		return topK(hits, k), c, nil
	}

	partials := make([]Hits, n)
	counts := make([]scanCounts, n)
	errs := make([]error, n)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			if v.shardSem != nil {
				select {
				case v.shardSem <- struct{}{}:
					defer func() { <-v.shardSem }()
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				}
			}
			partials[i], counts[i], errs[i] = scan(ctx, i)
		}(i)
	}
	wg.Wait()
	repanic(panics)
	var c scanCounts
	for _, err := range errs {
		if err != nil {
			return nil, c, err
		}
	}
	merged := Hits{}
	for i, p := range partials {
		merged = append(merged, p...)
		c.sqlRows += counts[i].sqlRows
		c.candidates += counts[i].candidates
		c.validated += counts[i].validated
	}
	return topK(merged, k), c, nil
}

// repanic re-raises the first panic captured on a worker goroutine. No
// read path panics by design, but a bug in one would otherwise kill the
// process from a goroutine nobody can recover on; re-raised on the
// calling goroutine, request-scoped recovery — net/http's per-request
// handler recover, a caller's own defer — contains it instead.
func repanic(panics []any) {
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
