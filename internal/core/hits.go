// Package core implements BLEND's contribution: the seeker and combiner
// operators (§IV of the paper), the declarative discovery Plan and its DAG,
// and the two-phase plan optimizer (§VII) that ranks operators with rules
// plus an index-frequency work estimate and rewrites their SQL with
// intermediate-result predicates before execution on the AllTables index.
package core

import "sort"

// TableHit is one discovered table with its operator-specific relevance
// score (overlap count for SC/KW/MC, |QCR| for the correlation seeker,
// occurrence count for the Counter combiner).
type TableHit struct {
	TableID int32
	Score   float64
}

// Hits is an ordered collection of scored tables, best first.
type Hits []TableHit

// TableIDs returns the table ids in order.
func (h Hits) TableIDs() []int32 {
	out := make([]int32, len(h))
	for i, t := range h {
		out[i] = t.TableID
	}
	return out
}

// Contains reports whether the table id appears in h.
func (h Hits) Contains(id int32) bool {
	for _, t := range h {
		if t.TableID == id {
			return true
		}
	}
	return false
}

// topK sorts hits by score descending (table id ascending as a
// deterministic tie break) and truncates to k. k < 0 means no limit.
func topK(h Hits, k int) Hits {
	sort.SliceStable(h, func(a, b int) bool {
		if h[a].Score != h[b].Score {
			return h[a].Score > h[b].Score
		}
		return h[a].TableID < h[b].TableID
	})
	if k >= 0 && len(h) > k {
		h = h[:k]
	}
	return h
}

// dedupeBest keeps the best-scoring hit per table, preserving no particular
// order (callers run topK afterwards).
func dedupeBest(h Hits) Hits {
	best := make(map[int32]float64, len(h))
	for _, t := range h {
		if s, ok := best[t.TableID]; !ok || t.Score > s {
			best[t.TableID] = t.Score
		}
	}
	out := make(Hits, 0, len(best))
	for id, s := range best {
		out = append(out, TableHit{TableID: id, Score: s})
	}
	return out
}
