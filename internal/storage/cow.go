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
//     postings inners, shard refs) are shared outright. Writers are
//     serialized and every clone derives from the newest store, so appends
//     form a linear chain: a later generation only ever writes backing
//     array elements at indices >= the older generation's length, which
//     old readers never touch (their slice headers end earlier).
//   - Arrays mutated in place (tombstone bitmaps, postings outer spine)
//     are copied per clone.
//   - The value dictionary map layers a per-generation delta over a shared
//     base (see Store.dictBase/dictDelta), folded back into a fresh base
//     when the delta grows past a quarter of it.
//   - Only the shard spine is copied: untouched shards are shared, mutated
//     shards are themselves cowCloned first. Lazy mmap slots are shared
//     across generations, so a shard materialized through any generation
//     is resident for all of them.

// cowClone returns a structurally shared copy of the store that is safe to
// mutate (append tables, tombstone) while readers keep using the receiver.
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
	// In-place-mutated state gets private copies; everything else is
	// append-only and shared (see the comment above).
	cp.dead = append([]bool(nil), s.dead...)
	cp.postings = append([][]int32(nil), s.postings...)
	return &cp
}

// cowClone returns a structurally shared copy of the sharded store: the
// shard spine and per-shard global-id directory are copied (their elements
// are overwritten per mutation), everything else — including the mmap seg
// and its lazy slots — is shared.
func (s *ShardedStore) cowClone() *ShardedStore {
	cp := *s
	cp.shards = append([]*Store(nil), s.shards...)
	cp.globalTID = append([][]int32(nil), s.globalTID...)
	return &cp
}

// ownShard replaces shard sh with a mutable cowClone of it,
// materializing it from the mapped file first if needed.
func (s *ShardedStore) ownShard(sh int) {
	s.shards[sh] = s.shard(sh).cowClone()
}

// CloneAddTablesBatch derives an index with tables appended and returns
// their global ids in input order; see addTablesBatch.
func (s *ShardedStore) CloneAddTablesBatch(tables []*table.Table) (*ShardedStore, []int32) {
	cp := s.cowClone()
	touched := make(map[int]struct{})
	for _, t := range tables {
		touched[cp.shardFor(t.Name)] = struct{}{}
	}
	for sh := range touched {
		cp.ownShard(sh)
	}
	return cp, cp.addTablesBatch(tables)
}

// CloneRemoveTable derives an index with one table tombstoned; see
// Store.removeTable.
func (s *ShardedStore) CloneRemoveTable(tid int32) (*ShardedStore, error) {
	if tid < 0 || int(tid) >= len(s.refs) {
		return nil, berr.New(berr.CodeNotFound, "storage.remove", "no table with id %d", tid)
	}
	r := s.refs[tid]
	cp := s.cowClone()
	cp.ownShard(int(r.shard))
	if err := cp.removeTable(tid); err != nil {
		return nil, err
	}
	return cp, nil
}

// CloneCompact derives an index rebuilt without tombstoned tables, keeping
// the shard count and the relative order of the (contiguously reassigned)
// global ids, and reports how many it reclaimed; with none it returns the
// receiver and 0. It never closes the parent's file mapping, which older
// generations may still read.
func (s *ShardedStore) CloneCompact() (*ShardedStore, int) {
	removed := s.Tombstones()
	if removed == 0 {
		return s, 0
	}
	live := make([]*table.Table, 0, len(s.refs)-removed)
	for g := range s.refs {
		r := s.refs[g]
		if sh := s.shard(int(r.shard)); sh.TableAlive(r.local) {
			live = append(live, sh.reconstructTable(r.local))
		}
	}
	return Build(live, len(s.shards)), removed
}
