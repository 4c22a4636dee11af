package storage

import (
	"blend/internal/berr"
	"blend/internal/table"
)

// Copy-on-write mutation surface. Each Clone* method leaves the receiver
// untouched and returns a derived index with the mutation applied, so an
// engine can publish immutable generation snapshots: readers keep scanning
// the old index while the writer builds the next one, with no lock between
// them. They are the only exported way to change an index.
//
// The clones share structure with their parent wherever sharing is safe:
//
//   - Append-only arrays (attribute columns, dict, tables, tableRange,
//     postings inners, shard refs, the tombstone bitmap on append) are
//     shared outright. Writers are serialized and every clone derives from
//     the newest store, so appends form a linear chain: a later generation
//     only ever writes backing array elements at indices >= the older
//     generation's length, which old readers never touch (their slice
//     headers end earlier).
//   - A remove flips one bit of the tombstone bitmap, which lives on the
//     ShardedStore: CloneRemoveTable copies the bitmap (one byte per
//     table) and shares every shard.
//   - An append copies two things per shard it writes: the postings outer
//     spine, whose element for an existing value is rewritten when the
//     value gains an entry, and the value dictionary map, which layers a
//     per-generation delta over a shared base (see
//     Store.dictBase/dictDelta) and is folded back into a fresh base when
//     the delta grows past a quarter of it. Untouched shards are shared.

// cowClone returns a structurally shared copy of the store that is safe to
// append tables to while readers keep using the receiver.
func (s *Store) cowClone() *Store {
	cp := *s
	// Dictionary layers: share the base read-only, give the clone its own
	// delta. Once the parent's delta outgrows a quarter of the base, fold
	// both into a fresh base so lookups stay two probes at most and old
	// deltas do not chain.
	switch {
	case s.dictDelta == nil:
		cp.dictDelta = make(map[string]int32)
	case len(s.dictDelta)*4 >= len(s.dictBase):
		base := make(map[string]int32, len(s.dictBase)+len(s.dictDelta))
		for k, v := range s.dictBase {
			base[k] = v
		}
		for k, v := range s.dictDelta {
			base[k] = v
		}
		cp.dictBase = base
		cp.dictDelta = make(map[string]int32)
	default:
		delta := make(map[string]int32, len(s.dictDelta)+8)
		for k, v := range s.dictDelta {
			delta[k] = v
		}
		cp.dictDelta = delta
	}
	// The postings spine is written in place; everything else is
	// append-only and shared (see the comment above).
	cp.postings = append([][]int32(nil), s.postings...)
	return &cp
}

// CloneAddTablesBatch derives an index with tables appended and returns
// their global ids in input order; see addTablesBatch. The derived index
// copies the shard spine and the per-shard global-id directory, whose
// elements an append overwrites, and replaces each shard the batch writes
// with a cowClone of it.
func (s *ShardedStore) CloneAddTablesBatch(tables []*table.Table) (*ShardedStore, []int32) {
	cp := *s
	cp.shards = append([]*Store(nil), s.shards...)
	cp.globalTID = append([][]int32(nil), s.globalTID...)
	for _, t := range tables {
		if sh := cp.shardFor(t.Name); cp.shards[sh] == s.shards[sh] {
			cp.shards[sh] = s.shards[sh].cowClone()
		}
	}
	return &cp, cp.addTablesBatch(tables)
}

// CloneRemoveTable derives an index with one table tombstoned: its id stays
// allocated (ids are never reused before compaction) and its entries stay
// in its shard, but it disappears from every read surface — name lookups,
// posting scans, table ranges, reconstruction. The derived index copies
// only the tombstone bitmap and shares every shard with the receiver.
func (s *ShardedStore) CloneRemoveTable(tid int32) (*ShardedStore, error) {
	if tid < 0 || int(tid) >= len(s.dead) {
		return nil, berr.New(berr.CodeNotFound, "storage.remove", "no table with id %d", tid)
	}
	if s.dead[tid] {
		return nil, berr.New(berr.CodeNotFound, "storage.remove", "table %d is already removed", tid)
	}
	cp := *s
	cp.dead = append([]bool(nil), s.dead...)
	cp.dead[tid] = true
	cp.numDead++
	return &cp, nil
}

// CloneCompact derives an index rebuilt without tombstoned tables, keeping
// the shard count and the relative order of the (contiguously reassigned)
// global ids, and reports how many it reclaimed; with none it returns the
// receiver and 0.
func (s *ShardedStore) CloneCompact() (*ShardedStore, int) {
	removed := s.numDead
	if removed == 0 {
		return s, 0
	}
	live := make([]*table.Table, 0, len(s.refs)-removed)
	for g := range s.refs {
		if t := s.ReconstructTable(int32(g)); t != nil {
			live = append(live, t)
		}
	}
	return Build(live, len(s.shards)), removed
}
