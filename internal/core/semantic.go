package core

import (
	"context"
	"time"

	"blend/internal/costmodel"
	"blend/internal/embed"
	"blend/internal/hnsw"
	"blend/internal/storage"
)

// Semantic is the seeker kind of the SemanticSeeker extension.
const Semantic = costmodel.KindSemantic

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
	// Probe is how many ANN neighbours to fetch before table dedup and
	// rewrite filtering; defaults to 4·K.
	Probe int
	// MinSupport, when positive, drops ANN candidates whose table shares
	// fewer than MinSupport distinct query values with the lake — the
	// native posting validation fused onto the ANN funnel. Zero (the
	// default) keeps validation observational: support is still counted
	// into RunStats.Validated, but no candidate is dropped, so results
	// match a pure ANN search.
	MinSupport int
}

// NewSemantic builds a semantic seeker over a query column's values.
func NewSemantic(values []string, k int) *SemanticSeeker {
	return &SemanticSeeker{Values: append([]string(nil), values...), K: k}
}

// Kind implements Seeker.
func (s *SemanticSeeker) Kind() SeekerKind { return Semantic }

// TopK implements Seeker.
func (s *SemanticSeeker) TopK() int { return s.K }

// Features implements Seeker. ANN cost scales with the probe width, not
// the lake, so the features describe the query only.
func (s *SemanticSeeker) Features(store *storage.ShardedStore) costmodel.Features {
	return costmodel.Features{Card: float64(len(s.Values)), Cols: 1, AvgFreq: 1}
}

// SQL implements Seeker. The semantic seeker runs against the embedding
// side-index, not the relational one; it has no SQL form.
func (s *SemanticSeeker) SQL(Rewrite) string { return "" }

func (s *SemanticSeeker) run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error) {
	stats := RunStats{Kind: Semantic, Rewritten: rw.active(), Path: PathANN}
	if len(s.Values) == 0 {
		return nil, stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	start := time.Now()
	idx := v.semanticIndex()
	vec := embed.Column(s.Values)
	if vec.IsZero() {
		stats.Duration = time.Since(start)
		return nil, stats, nil
	}
	probe := s.Probe
	if probe <= 0 {
		probe = 4 * s.K
	}
	if probe < s.K {
		probe = s.K
	}
	results := idx.ann.Search(vec, probe)
	stats.SQLRows = len(results)

	allowed, excluded := rw.filterSets()
	best := make(map[int32]float64)
	for _, r := range results {
		tid := idx.refs[r.ID]
		if allowed != nil {
			if _, ok := allowed[tid]; !ok {
				continue
			}
		}
		if excluded != nil {
			if _, ok := excluded[tid]; ok {
				continue
			}
		}
		sim := float64(r.Similarity)
		if cur, ok := best[tid]; !ok || sim > cur {
			best[tid] = sim
		}
	}

	// Native posting validation, fused onto the ANN funnel: Candidates is
	// the distinct tables surviving the rewrite post-filter, Validated the
	// subset syntactically supported by at least one exact query value in
	// the unified index. With MinSupport set the unsupported candidates are
	// dropped; otherwise validation only feeds the funnel counters.
	stats.Candidates = len(best)
	support := v.semanticSupport(s.Values, best)
	minSupport := s.MinSupport
	for tid := range best {
		if support[tid] > 0 {
			stats.Validated++
		}
		if support[tid] < minSupport {
			delete(best, tid)
		}
	}

	hits := make(Hits, 0, len(best))
	for tid, sim := range best {
		hits = append(hits, TableHit{TableID: tid, Score: sim})
	}
	stats.Duration = time.Since(start)
	return topK(hits, s.K), stats, nil
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

// filterSets converts a rewrite into post-filter sets for operators that
// cannot push the predicate into their search.
func (r Rewrite) filterSets() (allowed, excluded map[int32]struct{}) {
	switch r.mode {
	case 1:
		allowed = make(map[int32]struct{}, len(r.ids))
		for _, id := range r.ids {
			allowed[id] = struct{}{}
		}
	case 2:
		excluded = make(map[int32]struct{}, len(r.ids))
		for _, id := range r.ids {
			excluded[id] = struct{}{}
		}
	}
	return allowed, excluded
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
