package core

import (
	"context"
	"sync"

	"blend/internal/storage"
	"blend/internal/xash"
)

// The native MC executor answers the paper's multi-column seeker (Listing 2
// plus XASH filtering and exact validation, §VI) with no SQL: per-shard
// posting scans build the candidate-row set of the per-column index-hit
// join, each candidate's XASH super key prunes non-covering rows in-stream,
// exact tuple validation runs against rows reconstructed from that shard,
// and the per-shard bounded top-k heaps merge under the shared
// (score desc, TableId asc) order. It is the MC counterpart of
// runNativeOverlap: same pooled scratch discipline (epoch-marked progress
// per candidate instead of per table), same shard fan-out under the
// engine's semaphore, and bit-identical results to the SQL fallback —
// including the RunStats funnel (SQLRows, Candidates, Validated).

// mcCand tracks one candidate row (TableId, RowId) through the per-column
// join. col is the epoch mark: the index of the last query column that
// matched the row. A row whose col falls behind the scan's current column
// missed a join leg and is dead; it is skipped, never deleted, so the
// pooled map is written once per surviving leg.
type mcCand struct {
	super xash.Key
	prod  int64 // join-row multiplicity of columns 0..col-1
	col   int32 // epoch: last query column with a match
	cnt   int32 // matches within column col
}

// mcScratch is the pooled per-shard scan state: the candidate map, the
// cell set reused across row validations, the contained-tuple index
// buffer, and the posting block. clear() keeps the map buckets allocated
// across scans, the same amortization the overlap scratch applies to its
// group map.
type mcScratch struct {
	cands  map[uint64]mcCand
	cells  map[string]struct{}
	tupIdx []int
	blk    storage.PostingBlock
}

var mcPool = sync.Pool{New: func() any {
	return &mcScratch{
		cands: make(map[uint64]mcCand),
		cells: make(map[string]struct{}),
	}
}}

func grabMCScratch() *mcScratch { return mcPool.Get().(*mcScratch) }

func (sc *mcScratch) release() {
	if len(sc.cands) > 0 {
		clear(sc.cands)
	}
	if len(sc.cells) > 0 {
		clear(sc.cells)
	}
	sc.tupIdx = sc.tupIdx[:0]
	mcPool.Put(sc)
}

// rowKey64 packs a (TableId, RowId) pair into one map key.
func rowKey64(tid, rid int32) uint64 {
	return uint64(uint32(tid))<<32 | uint64(uint32(rid))
}

// scanShardMC executes the MC pipeline against shard sh of s and
// returns its top-k hits (best first) plus the validation funnel both
// execution paths report identically: the rows Listing 2's join would
// return, the rows surviving the XASH filter, and the rows surviving exact
// validation.
//
// Column 0 seeds the candidate set (the optimizer's rewrite predicate
// lands here, exactly like the first subquery of the generated SQL bounds
// every join result); each later column advances only candidates whose
// epoch reached the previous column. The per-column match counts multiply
// into the join-row multiplicity, so sqlRows equals the row count of the
// SQL join without materializing it.
func scanShardMC(ctx context.Context, s *storage.ShardedStore, sh int, cols [][]string,
	tuples [][]string, tupleKeys []xash.Key, k int, f *tableFilter) (Hits, scanCounts, error) {

	var c scanCounts
	sc := grabMCScratch()
	defer sc.release()

	blk := &sc.blk
	for _, v := range cols[0] {
		if err := ctx.Err(); err != nil {
			return nil, c, err
		}
		cur := s.ShardPostings(sh, v)
		for cur.Next(blk, true) {
			for i, tid := range blk.TID[:blk.N] {
				if !f.admit(tid) {
					continue
				}
				key := rowKey64(tid, blk.RID[i])
				cand, ok := sc.cands[key]
				if !ok {
					sc.cands[key] = mcCand{super: blk.Super[i], prod: 1, cnt: 1}
					continue
				}
				if cand.col == 0 {
					cand.cnt++
					sc.cands[key] = cand
				}
			}
		}
	}
	for ci := 1; ci < len(cols); ci++ {
		epoch := int32(ci)
		for _, v := range cols[ci] {
			if err := ctx.Err(); err != nil {
				return nil, c, err
			}
			cur := s.ShardPostings(sh, v)
			for cur.Next(blk, false) {
				for i, tid := range blk.TID[:blk.N] {
					key := rowKey64(tid, blk.RID[i])
					cand, ok := sc.cands[key]
					if !ok {
						continue
					}
					switch cand.col {
					case epoch - 1:
						cand.prod *= int64(cand.cnt)
						cand.col = epoch
						cand.cnt = 1
					case epoch:
						cand.cnt++
					default:
						continue
					}
					sc.cands[key] = cand
				}
			}
		}
	}

	last := int32(len(cols) - 1)
	matched := make(map[int32]int32)
	checked := 0
	for key, cand := range sc.cands {
		if cand.col != last {
			continue
		}
		c.sqlRows += int(cand.prod) * int(cand.cnt)

		// XASH bloom filter: some query tuple must be fully covered by the
		// row's super key. Recall is exact (Contains never rejects a truly
		// contained tuple), so the filter only trims validation work.
		sc.tupIdx = sc.tupIdx[:0]
		for ti, tk := range tupleKeys {
			if cand.super.Contains(tk) {
				sc.tupIdx = append(sc.tupIdx, ti)
			}
		}
		if len(sc.tupIdx) == 0 {
			continue
		}
		c.candidates++
		if checked++; checked&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return nil, c, err
			}
		}

		// Exact validation: every value of some surviving tuple must occur
		// in the reconstructed candidate row.
		tid, rid := int32(key>>32), int32(uint32(key))
		if len(sc.cells) > 0 {
			clear(sc.cells)
		}
		for _, cell := range s.ReconstructRow(tid, rid) {
			if cell != "" {
				sc.cells[cell] = struct{}{}
			}
		}
		valid := false
		for _, ti := range sc.tupIdx {
			all := true
			for _, v := range tuples[ti] {
				if v == "" {
					continue
				}
				if _, ok := sc.cells[v]; !ok {
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
			c.validated++
			matched[tid]++
		}
	}

	heap := topkHeap{k: k}
	for tid, n := range matched {
		heap.offer(TableHit{TableID: tid, Score: float64(n)})
	}
	return heap.sorted(), c, nil
}

// runNativeMC executes the MC seeker on the native fast path.
func (v *view) runNativeMC(ctx context.Context, s *MCSeeker, rw Rewrite) (Hits, scanCounts, error) {
	x := s.width()
	cols := make([][]string, x)
	for i := range cols {
		cols[i] = s.columnValues(i)
		if len(cols[i]) == 0 {
			// A column with no non-empty values renders as `IN ()`, which
			// matches nothing: the join is empty on both paths.
			return Hits{}, scanCounts{}, nil
		}
	}
	tupleKeys := make([]xash.Key, len(s.Tuples))
	for i, t := range s.Tuples {
		tupleKeys[i] = xash.HashRow(t)
	}
	f := compileFilter(rw)
	store := v.sn.store
	return v.runShards(ctx, s.K, func(ctx context.Context, sh int) (Hits, scanCounts, error) {
		return scanShardMC(ctx, store, sh, cols, s.Tuples, tupleKeys, s.K, &f)
	})
}
