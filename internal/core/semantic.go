package core

import (
	"context"

	"blend/internal/embed"
	"blend/internal/hnsw"
	"blend/internal/storage"
)

// SemanticSeeker implements the paper's future-work extension (§X):
// discovery by semantic rather than syntactic similarity, through
// high-dimensional column embeddings and an HNSW index built over the
// unified index's contents. The first semantic query on an engine builds
// the embedding index lazily from AllTables; subsequent queries reuse it.
//
// Because ANN search is approximate, the optimizer never reorders a
// semantic seeker against others in an execution group; rewrites are
// applied as post-filters so intermediate results still narrow the output
// without touching the ANN search itself (the result-set stability concern
// the paper raises for approximate operators).
type SemanticSeeker struct {
	// Values is the query column content to embed.
	Values []string
	K      int
}

// NewSemantic builds a semantic seeker over a query column's values.
func NewSemantic(values []string, k int) *SemanticSeeker {
	return &SemanticSeeker{Values: append([]string(nil), values...), K: k}
}

// Kind implements Seeker.
func (s *SemanticSeeker) Kind() SeekerKind { return Semantic }

// TopK implements Seeker.
func (s *SemanticSeeker) TopK() int { return s.K }

// estimate prices the query only: ANN cost scales with the probe width,
// not the lake.
func (s *SemanticSeeker) estimate(*storage.ShardedStore) float64 {
	return float64(len(s.Values))
}

// SQL implements Seeker. The semantic seeker runs against the embedding
// side-index, not the relational one; it has no SQL form.
func (s *SemanticSeeker) SQL(Rewrite) string { return "" }

func (s *SemanticSeeker) empty() bool { return len(s.Values) == 0 }

// native searches the embedding index for 4·K neighbours, keeps the best
// similarity per table that survives the rewrite post-filter, and counts
// the funnel: Candidates are those tables, Validated the ones at least
// one exact query value corroborates in the unified index. Validation
// only feeds the counters; no candidate is dropped.
func (s *SemanticSeeker) native(_ context.Context, v *view, rw Rewrite) (Hits, scanCounts, error) {
	idx := v.semanticIndex()
	vec := embed.Column(s.Values)
	if vec.IsZero() {
		return nil, scanCounts{}, nil
	}
	results := idx.ann.Search(vec, 4*s.K)
	c := scanCounts{sqlRows: len(results)}

	filter := compileFilter(rw)
	best := make(map[int32]float64)
	for _, r := range results {
		tid := idx.refs[r.ID]
		if !filter.admit(tid) {
			continue
		}
		sim := float64(r.Similarity)
		if cur, ok := best[tid]; !ok || sim > cur {
			best[tid] = sim
		}
	}
	c.candidates = len(best)
	support := v.semanticSupport(s.Values, best)
	hits := make(Hits, 0, len(best))
	for tid, sim := range best {
		if support[tid] > 0 {
			c.validated++
		}
		hits = append(hits, TableHit{TableID: tid, Score: sim})
	}
	return topK(hits, s.K), c, nil
}

// oracle is the ANN search itself: the semantic seeker has no SQL form,
// and view.seek never picks this path for it.
func (s *SemanticSeeker) oracle(ctx context.Context, v *view, rw Rewrite) (Hits, scanCounts, error) {
	return s.native(ctx, v, rw)
}

// semanticSupport counts, for each ANN candidate table, how many distinct
// query values appear verbatim in that table — one posting scan per
// distinct value, restricted to the candidate set. It is the exact-match
// complement of the embedding search: ANN proposes, postings corroborate.
func (v *view) semanticSupport(values []string, cand map[int32]float64) map[int32]int {
	support := make(map[int32]int, len(cand))
	if len(cand) == 0 {
		return support
	}
	seen := make(map[int32]struct{}, len(cand))
	var blk storage.PostingBlock
	for _, val := range distinct(values) {
		clear(seen)
		cur := v.sn.store.Postings(val)
		for cur.Next(&blk, false) {
			for _, tid := range blk.TID[:blk.N] {
				if _, ok := cand[tid]; !ok {
					continue
				}
				if _, dup := seen[tid]; dup {
					continue
				}
				seen[tid] = struct{}{}
				support[tid]++
			}
		}
	}
	return support
}

// semanticIdx is the lazily built embedding side-index: one vector per
// non-empty lake column.
type semanticIdx struct {
	ann *hnsw.Index
	// refs maps ANN external ids to table ids.
	refs []int32
}

// semanticIndex returns the pinned snapshot's embedding index, building it
// on first use from the snapshot's reconstructed columns. Snapshots are
// immutable, so the index is built at most once per generation and can
// never go stale — a mutation publishes a new snapshot whose first
// semantic query builds a fresh one, exactly like the result cache keys
// roll over. Retained historical generations keep theirs, so time-travel
// semantic queries stay consistent with what was served live.
func (v *view) semanticIndex() *semanticIdx {
	sn := v.sn
	sn.semMu.Lock()
	defer sn.semMu.Unlock()
	if sn.semIdx != nil {
		return sn.semIdx
	}
	idx := &semanticIdx{ann: hnsw.New(hnsw.DefaultConfig())}
	for tid := int32(0); tid < int32(sn.store.NumTables()); tid++ {
		t := sn.store.ReconstructTable(tid)
		if t == nil { // tombstoned
			continue
		}
		for c := 0; c < t.NumCols(); c++ {
			vec := embed.Column(t.ColumnValues(c))
			if vec.IsZero() {
				continue
			}
			id := len(idx.refs)
			idx.refs = append(idx.refs, tid)
			if err := idx.ann.Add(id, vec); err != nil {
				// IsZero filtered zero vectors; Add cannot fail.
				panic("core: " + err.Error())
			}
		}
	}
	sn.semIdx = idx
	return sn.semIdx
}
