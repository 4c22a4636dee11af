package core

import (
	"context"
	"sort"
	"sync"

	"blend/internal/storage"
)

// The native correlation executor answers the paper's correlation seeker
// (Listing 3 plus the QCR score of §VI) with no SQL: per shard, one posting
// scan per distinct key value collects the key-side entries of the sampled
// row prefix (RowId < h), and a single pass over each touched table's
// quadrant stream merge-joins numeric cells against those key hits on
// RowId — the (TableId, RowId) join of Listing 3 — accumulating agreement
// counts per (numeric column, key column) group. The QCR of each group is
// (2·agree − n)/n, computed with the exact float semantics of the minisql
// fallback, and per-shard bounded top-k heaps merge under the shared
// (score desc, TableId asc) order. It is the correlation counterpart of
// runNativeMC: same pooled scratch discipline, same shard fan-out under
// the engine's semaphore, and bit-identical results to the SQL path.

// corrHit is one key-side entry of the sampled prefix: a cell of table tid
// in row rid and column kcol whose value is a query key. mask records
// which quadrant partitions the value belongs to (bit 0: below-mean keys
// k0, bit 1: at-or-above-mean keys k1) — one key value can sit in both
// when its paired targets straddle the mean, and folding that into a
// bitmask keeps the scan visiting each distinct value once without
// double-counting join rows the way two separate scans would.
type corrHit struct {
	tid, rid, kcol int32
	mask           uint8
}

// corrGroup is one (nums.ColumnId, keys.ColumnId) aggregation cell of
// Listing 3's GROUP BY within a table: n joined pairs, agree of them with
// the key's partition matching the numeric cell's quadrant bit.
type corrGroup struct {
	n, agree int32
}

// corrScratch is the pooled per-shard scan state: the key-hit buffer
// (sorted once per scan, reused across scans), the per-table group map
// (cleared between tables, buckets kept allocated), and the posting block.
type corrScratch struct {
	hits   []corrHit
	groups map[uint64]corrGroup
	blk    storage.PostingBlock
}

var corrPool = sync.Pool{New: func() any {
	return &corrScratch{groups: make(map[uint64]corrGroup)}
}}

func grabCorrScratch() *corrScratch { return corrPool.Get().(*corrScratch) }

func (sc *corrScratch) release() {
	sc.hits = sc.hits[:0]
	if len(sc.groups) > 0 {
		clear(sc.groups)
	}
	corrPool.Put(sc)
}

// scanShardCorr executes the correlation pipeline against shard sh of s
// and returns its top-k hits (best first) plus the number of aggregation
// groups — the rows Listing 3 would have produced on this shard.
func scanShardCorr(ctx context.Context, s *storage.ShardedStore, sh int, vals []string,
	masks []uint8, h int32, k int, f *tableFilter) (Hits, scanCounts, error) {

	sc := grabCorrScratch()
	defer sc.release()

	// Phase 1: one posting scan per distinct key value collects the
	// key-side entries of the sampled prefix, rewrite-filtered exactly
	// like the keys subquery of the generated SQL.
	blk := &sc.blk
	for vi, v := range vals {
		if err := ctx.Err(); err != nil {
			return nil, scanCounts{}, err
		}
		mask := masks[vi]
		cur := s.ShardPostings(sh, v)
		for cur.Next(blk, false) {
			for i, rid := range blk.RID[:blk.N] {
				if tid := blk.TID[i]; rid < h && f.admit(tid) {
					sc.hits = append(sc.hits, corrHit{tid: tid, rid: rid, kcol: blk.CID[i], mask: mask})
				}
			}
		}
	}
	if len(sc.hits) == 0 {
		return nil, scanCounts{}, nil
	}

	// Phase 2: group the hits by table, rows ascending within each table,
	// so every table is joined in one ordered pass.
	hits := sc.hits
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].tid != hits[b].tid {
			return hits[a].tid < hits[b].tid
		}
		return hits[a].rid < hits[b].rid
	})

	// Phase 3: per table, merge-join the quadrant stream (numeric cells of
	// RowId < h, ascending by row) against the table's key hits on RowId.
	// Both sides are sorted, so the join advances a cursor instead of
	// building a hash table; a (numeric, key) pair joins unless it is the
	// same column on both sides (keys.ColumnId <> nums.ColumnId).
	heap := topkHeap{k: k}
	groups := 0
	for lo := 0; lo < len(hits); {
		tid := hits[lo].tid
		hi := lo + 1
		for hi < len(hits) && hits[hi].tid == tid {
			hi++
		}
		if err := ctx.Err(); err != nil {
			return nil, scanCounts{}, err
		}
		p := lo
		s.ScanTableNumeric(tid, h, func(ncol, rid int32, q int8) {
			for p < hi && hits[p].rid < rid {
				p++
			}
			for j := p; j < hi && hits[j].rid == rid; j++ {
				if hits[j].kcol == ncol {
					continue
				}
				key := uint64(uint32(ncol))<<32 | uint64(uint32(hits[j].kcol))
				g := sc.groups[key]
				g.n++
				g.agree += int32(hits[j].mask>>uint8(q)) & 1
				sc.groups[key] = g
			}
		})
		if len(sc.groups) > 0 {
			best := 0.0
			for _, g := range sc.groups {
				// The minisql fallback computes (2·SUM − COUNT) in integer
				// space and divides as float; reproducing the operation
				// order keeps the scores bit-identical across paths.
				score := float64(2*int64(g.agree)-int64(g.n)) / float64(g.n)
				if score < 0 {
					score = -score
				}
				if score > best {
					best = score
				}
			}
			groups += len(sc.groups)
			heap.offer(TableHit{TableID: tid, Score: best})
			clear(sc.groups)
		}
		lo = hi
	}
	return heap.sorted(), scanCounts{sqlRows: groups}, nil
}

// runNativeCorrelation executes the correlation seeker on the native fast
// path. k0 and k1 are the seeker's quadrant-partitioned key lists
// (split()); they fold into one distinct value list with a per-value
// partition bitmask so each posting list is scanned exactly once.
func (v *view) runNativeCorrelation(ctx context.Context, k0, k1 []string,
	k int, h int32, rw Rewrite) (Hits, scanCounts, error) {

	vals := make([]string, 0, len(k0)+len(k1))
	masks := make([]uint8, 0, len(k0)+len(k1))
	idx := make(map[string]int, len(k0)+len(k1))
	for _, key := range k0 {
		idx[key] = len(vals)
		vals = append(vals, key)
		masks = append(masks, 1)
	}
	for _, key := range k1 {
		if i, ok := idx[key]; ok {
			masks[i] |= 2
			continue
		}
		idx[key] = len(vals)
		vals = append(vals, key)
		masks = append(masks, 2)
	}
	f := compileFilter(rw)
	store := v.sn.store
	return v.runShards(ctx, k, func(ctx context.Context, sh int) (Hits, scanCounts, error) {
		return scanShardCorr(ctx, store, sh, vals, masks, h, k, &f)
	})
}
