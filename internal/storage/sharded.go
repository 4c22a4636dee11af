package storage

import (
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"blend/internal/berr"
	"blend/internal/table"
	"blend/internal/xash"
)

// ShardedStore hash-partitions the AllTables relation across N shards, one
// Store per shard, each with its own dictionary, inverted index, and
// table-range index; N = 1 is the monolithic case. It is the whole index:
// the read surface, copy-on-write maintenance (cow.go) and persistence
// (persist.go). Tables are assigned whole to a shard by a hash of their
// name, so every per-table aggregate a seeker computes (GROUP BY TableId,
// joins on TableId/RowId) is shard-local and the native executors can scan
// every shard concurrently (ShardPostings) and merge top-k.
//
// The ShardedStore presents the unified global view: entry positions are
// globally contiguous (shard s occupies [base[s], base[s+1])) and table
// ids are assigned in insertion order across the whole lake, so SQL and
// the native executors behave identically regardless of partitioning.
type ShardedStore struct {
	shards []*Store

	// refs maps global table id -> owning shard and shard-local table id.
	refs []shardRef
	// globalTID maps, per shard, local table id -> global table id.
	globalTID [][]int32
	// base[s] is the global entry offset of shard s; base has one extra
	// trailing element holding the total entry count.
	base []int32

	// seg/slots back a lazily mapped v4 index (MapFile): shards[i] stays
	// nil until first touch, when slots[i] materializes it from the
	// mapped segments. Both are nil for heap-built stores. Slots are
	// pointers and shared across copy-on-write clones (see cow.go), so a
	// shard materialized through any generation becomes resident for all
	// of them; a clone that mutates shard i overrides it by setting
	// shards[i], which always wins over the slot. See shard().
	seg   *segFile
	slots []*shardSlot
}

// shardSlot guards one shard's lazy materialization.
type shardSlot struct {
	once sync.Once
	done atomic.Bool
	st   *Store // the materialized shard; written inside Do
	err  error  // guarded by once: written inside Do, read after it returns
}

// shard returns shard i, materializing it from the mapped file on first
// touch. Reads from concurrent goroutines are safe: sync.Once publishes
// the decoded store. A shard that fails its checksum or integrity checks
// panics with a typed bad-index error — the read accessors have no error
// returns, and a section whose CRC no longer matches means the file was
// corrupted underneath a running process, which is not a state to limp
// through. Structural problems (bad footer, bad offsets) are caught
// up front by MapFile instead.
func (s *ShardedStore) shard(i int) *Store {
	if st := s.shards[i]; st != nil {
		return st
	}
	st, err := s.loadShard(i)
	if err != nil {
		panic(err)
	}
	return st
}

// loadShard is shard returning the typed bad-index error instead of
// panicking with it, for callers that have an error return.
func (s *ShardedStore) loadShard(i int) (*Store, error) {
	if st := s.shards[i]; st != nil {
		return st, nil
	}
	sl := s.slots[i]
	sl.once.Do(func() {
		st, err := s.seg.materializeShard(i)
		if err != nil {
			sl.err = err
			return
		}
		sl.st = st
		sl.done.Store(true)
	})
	if sl.err != nil {
		return nil, berr.New(berr.CodeBadIndex, "storage.mmap", "shard %d: %v", i, sl.err)
	}
	return sl.st, nil
}

// LoadShards returns every shard, first materializing those of a mapped
// store still untouched — the exact whole-index reads (Save, the CLI's
// stats) need all of them. The first shard that fails its integrity
// checks returns its typed bad-index error instead of panicking.
func (s *ShardedStore) LoadShards() ([]*Store, error) {
	shards := make([]*Store, len(s.shards))
	for i := range shards {
		st, err := s.loadShard(i)
		if err != nil {
			return nil, err
		}
		shards[i] = st
	}
	return shards, nil
}

// residentShard returns shard i only if it is already heap-resident, nil
// otherwise. Stats and size accounting use it to avoid forcing
// materialization.
func (s *ShardedStore) residentShard(i int) *Store {
	if st := s.shards[i]; st != nil {
		return st
	}
	if s.slots == nil {
		return nil
	}
	if sl := s.slots[i]; sl.done.Load() {
		return sl.st
	}
	return nil
}

// shardEntries reports shard i's entry count without materializing it
// (the v4 footer stores per-shard counts).
func (s *ShardedStore) shardEntries(i int) int {
	if sh := s.residentShard(i); sh != nil {
		return sh.NumEntries()
	}
	return s.seg.shards[i].entries
}

// ResidentShards counts the shards currently materialized on the heap;
// equal to NumShards for built stores.
func (s *ShardedStore) ResidentShards() int {
	if s.slots == nil {
		return len(s.shards)
	}
	n := 0
	for i := range s.slots {
		if s.shards[i] != nil || s.slots[i].done.Load() {
			n++
		}
	}
	return n
}

// MappedBytes reports the size of the memory-mapped file backing this
// store, 0 when heap-built.
func (s *ShardedStore) MappedBytes() int64 {
	if s.seg == nil {
		return 0
	}
	return int64(len(s.seg.data))
}

// Close releases the memory mapping of a store opened with MapFile; a
// no-op otherwise. Callers must not touch unmaterialized shards after
// Close (already-materialized shards are heap copies and stay valid).
func (s *ShardedStore) Close() error {
	if s.seg == nil {
		return nil
	}
	return s.seg.close()
}

type shardRef struct {
	shard int32
	local int32
}

// MaxShards caps the partition count, so every index Build can produce is
// also one MapFile accepts (the reader rejects counts above this as
// corruption).
const MaxShards = 1 << 12

// Build indexes the tables into n hash-partitioned shards (the offline
// phase, Fig. 2e). n is clamped to [1, MaxShards]; n = 1 is the
// monolithic index.
func Build(tables []*table.Table, n int) *ShardedStore {
	n = max(1, min(n, MaxShards))
	s := &ShardedStore{
		shards:    make([]*Store, n),
		globalTID: make([][]int32, n),
	}
	for i := range s.shards {
		s.shards[i] = newStore()
	}
	for _, t := range tables {
		sh := s.shardFor(t.Name)
		local := s.shards[sh].addTable(t)
		s.refs = append(s.refs, shardRef{shard: int32(sh), local: local})
		s.globalTID[sh] = append(s.globalTID[sh], int32(len(s.refs)-1))
	}
	s.recomputeBase()
	return s
}

// shardFor picks the shard owning a table name (FNV-1a modulo shard count).
func (s *ShardedStore) shardFor(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// recomputeBase refreshes the global entry offsets after shard growth.
// Lazy shards contribute their footer-recorded counts, so the global
// positions are exact without materializing anything.
func (s *ShardedStore) recomputeBase() {
	s.base = make([]int32, len(s.shards)+1)
	for i := range s.shards {
		s.base[i+1] = s.base[i] + int32(s.shardEntries(i))
	}
}

// locate maps a global entry position to (shard, local position).
func (s *ShardedStore) locate(i int32) (int, int32) {
	// sort.Search finds the first shard whose range ends beyond i.
	sh := sort.Search(len(s.shards), func(k int) bool { return s.base[k+1] > i })
	return sh, i - s.base[sh]
}

// NumShards reports the partition count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// NumEntries reports the total AllTables tuples across shards.
func (s *ShardedStore) NumEntries() int { return int(s.base[len(s.shards)]) }

// NumTables reports the number of indexed tables across shards.
func (s *ShardedStore) NumTables() int { return len(s.refs) }

// NumDistinctValues reports the number of distinct cell values across the
// whole lake. Dictionaries are per-shard, so this deduplicates across them;
// it is an O(dictionary) scan meant for stats, not hot paths.
func (s *ShardedStore) NumDistinctValues() int { return s.distinctValues(s.shard) }

// distinctValues counts the distinct values across the dictionaries of the
// shards get returns, skipping shards it returns nil for.
func (s *ShardedStore) distinctValues(get func(int) *Store) int {
	if len(s.shards) == 1 {
		if sh := get(0); sh != nil {
			return len(sh.dict)
		}
		return 0
	}
	seen := make(map[string]struct{})
	for i := range s.shards {
		if sh := get(i); sh != nil {
			for _, v := range sh.dict {
				seen[v] = struct{}{}
			}
		}
	}
	return len(seen)
}

// TableMeta returns catalog information for a global table id.
func (s *ShardedStore) TableMeta(tid int32) TableMeta {
	r := s.refs[tid]
	return s.shard(int(r.shard)).TableMeta(r.local)
}

// TableName returns the name of a global table id, or "" if out of range
// or tombstoned.
func (s *ShardedStore) TableName(tid int32) string {
	if !s.TableAlive(tid) {
		return ""
	}
	return s.TableMeta(tid).Name
}

// TableIDByName returns the global id of the named live table, or -1.
// Tables are assigned whole to the shard hashing their name, so only that
// shard needs to be consulted (and, when lazy, materialized).
func (s *ShardedStore) TableIDByName(name string) int32 {
	sh := s.shardFor(name)
	local := s.shard(sh).TableIDByName(name)
	if local < 0 {
		return -1
	}
	return s.globalTID[sh][local]
}

// TableAlive reports whether a global table id is allocated and not
// tombstoned. Tombstone bitmaps are decoded at open, so this never
// materializes a shard.
func (s *ShardedStore) TableAlive(tid int32) bool {
	if tid < 0 || int(tid) >= len(s.refs) {
		return false
	}
	r := s.refs[tid]
	if sh := s.residentShard(int(r.shard)); sh != nil {
		return sh.TableAlive(r.local)
	}
	return !s.seg.shards[r.shard].dead[r.local]
}

// Tombstones sums the removed-but-not-compacted tables across shards,
// using the footer counts for shards not yet materialized.
func (s *ShardedStore) Tombstones() int {
	n := 0
	for i := range s.shards {
		if sh := s.residentShard(i); sh != nil {
			n += sh.Tombstones()
		} else {
			n += s.seg.shards[i].numDead
		}
	}
	return n
}

// Value returns the CellValue of global entry i.
func (s *ShardedStore) Value(i int32) string {
	sh, l := s.locate(i)
	return s.shard(sh).Value(l)
}

// TableID returns the global TableId of entry i.
func (s *ShardedStore) TableID(i int32) int32 {
	sh, l := s.locate(i)
	return s.globalTID[sh][s.shard(sh).TableID(l)]
}

// ColumnID returns the ColumnId of global entry i.
func (s *ShardedStore) ColumnID(i int32) int32 {
	sh, l := s.locate(i)
	return s.shard(sh).ColumnID(l)
}

// RowID returns the RowId of global entry i.
func (s *ShardedStore) RowID(i int32) int32 {
	sh, l := s.locate(i)
	return s.shard(sh).RowID(l)
}

// SuperKey returns the XASH super key of global entry i's row.
func (s *ShardedStore) SuperKey(i int32) xash.Key {
	sh, l := s.locate(i)
	return s.shard(sh).SuperKey(l)
}

// Quadrant returns the quadrant bit of global entry i.
func (s *ShardedStore) Quadrant(i int32) int8 {
	sh, l := s.locate(i)
	return s.shard(sh).Quadrant(l)
}

// Postings returns a cursor over the live entries holding value v across
// every shard in shard order, with global positions and table ids — the
// inverted index on CellValue, read block by block.
func (s *ShardedStore) Postings(v string) PostingCursor {
	return PostingCursor{s: s, value: v, end: len(s.shards)}
}

// ShardPostings is Postings restricted to shard i: the live entries of
// that shard holding value v, still with global positions and table ids.
// The native executors scan one shard per goroutine through it.
func (s *ShardedStore) ShardPostings(i int, v string) PostingCursor {
	return PostingCursor{s: s, value: v, next: i, end: i + 1}
}

// ScanPostings streams the (TableId, ColumnId, RowId) attributes of every
// live entry holding value v, in ascending global position order: a loop
// over Postings for callers that want one callback per entry.
func (s *ShardedStore) ScanPostings(v string, fn func(tid, cid, rid int32)) {
	var blk PostingBlock
	cur := s.Postings(v)
	for cur.Next(&blk, false) {
		for i := range blk.N {
			fn(blk.TID[i], blk.CID[i], blk.RID[i])
		}
	}
}

// ScanTableNumeric streams the numeric cells of global table tid with
// RowId < maxRow. Tables live whole on one shard, so the call delegates to
// the owning shard with the local id.
func (s *ShardedStore) ScanTableNumeric(tid, maxRow int32, fn func(cid, rid int32, q int8)) {
	if tid < 0 || int(tid) >= len(s.refs) {
		return
	}
	r := s.refs[tid]
	s.shard(int(r.shard)).ScanTableNumeric(r.local, maxRow, fn)
}

// Frequency returns the number of index entries holding value v.
func (s *ShardedStore) Frequency(v string) int {
	total := 0
	for i := range s.shards {
		total += s.shard(i).Frequency(v)
	}
	return total
}

// AvgFrequency returns the mean index frequency of the given values — the
// statistic the optimizer's within-kind work estimate uses (§VII-B).
func (s *ShardedStore) AvgFrequency(values []string) float64 {
	if len(values) == 0 {
		return 0
	}
	total := 0
	for _, v := range values {
		total += s.Frequency(v)
	}
	return float64(total) / float64(len(values))
}

// TableEntries returns the global [start, end) entry range of a table id.
func (s *ShardedStore) TableEntries(tid int32) (start, end int32) {
	r := s.refs[tid]
	lo, hi := s.shard(int(r.shard)).TableEntries(r.local)
	return lo + s.base[r.shard], hi + s.base[r.shard]
}

// ReconstructRow materializes row rid of global table tid.
func (s *ShardedStore) ReconstructRow(tid, rid int32) []string {
	r := s.refs[tid]
	return s.shard(int(r.shard)).ReconstructRow(r.local, rid)
}

// ReconstructTable materializes a full table from the index.
func (s *ShardedStore) ReconstructTable(tid int32) *table.Table {
	r := s.refs[tid]
	return s.shard(int(r.shard)).ReconstructTable(r.local)
}

// SizeBytes sums the heap sizes of the resident shards. On a lazily
// mapped store this is the resident footprint only — the mapped file is
// reported separately by MappedBytes — so the sum never forces
// materialization.
func (s *ShardedStore) SizeBytes() int64 {
	var b int64
	for i := range s.shards {
		if sh := s.residentShard(i); sh != nil {
			b += sh.SizeBytes()
		}
	}
	return b
}

// ComputeStats aggregates per-shard stats into one lake summary. The
// posting-length figures are computed over per-shard dictionaries (a value
// split across shards counts once per shard), which is what the scan cost
// of a sharded seeker actually depends on.
//
// On a lazily mapped store the shape figures (tables, entries, tombstones,
// shards) are exact — they come from the footer — but the content scans
// (dictionary, postings, numeric cells, per-table averages) cover only the
// shards already materialized, so that a stats probe of a mapped serving
// process does not drag the whole index onto the heap. ResidentShards and
// MappedBytes make the coverage explicit; LoadShards first makes every
// figure exact.
func (s *ShardedStore) ComputeStats() Stats {
	st := Stats{
		Shards:         len(s.shards),
		Tables:         s.NumTables() - s.Tombstones(),
		Tombstones:     s.Tombstones(),
		Entries:        s.NumEntries(),
		EstimatedBytes: s.SizeBytes(),
		ResidentShards: s.ResidentShards(),
		MappedBytes:    s.MappedBytes(),
		DistinctValues: s.distinctValues(s.residentShard),
	}
	totalPost, dictEntries := 0, 0
	var cols, rows, liveTables int
	for i := range s.shards {
		sh := s.residentShard(i)
		if sh == nil {
			continue
		}
		sub := sh.ComputeStats()
		st.NumericCells += sub.NumericCells
		st.DictBytes += sub.DictBytes
		if sub.MaxPostingLength > st.MaxPostingLength {
			st.MaxPostingLength = sub.MaxPostingLength
		}
		totalPost += sub.Entries
		dictEntries += sub.DistinctValues
		for tid := range sh.tables {
			if sh.dead[tid] {
				continue
			}
			liveTables++
			cols += len(sh.tables[tid].ColNames)
			rows += int(sh.tables[tid].NumRows)
		}
	}
	if dictEntries > 0 {
		st.AvgPostingLength = float64(totalPost) / float64(dictEntries)
	}
	if liveTables > 0 {
		st.AvgColumnsPerTbl = float64(cols) / float64(liveTables)
		st.AvgRowsPerTable = float64(rows) / float64(liveTables)
	}
	return st
}

// addTablesBatch appends a batch of tables in place, assigning global ids
// in input order, and applies the per-shard inserts concurrently — the
// write-path counterpart of the per-shard read fan-out. Tables are grouped
// by their hash shard first; each shard's group is then appended by one
// goroutine (dictionaries and postings are shard-local, so the appends
// share no state), GOMAXPROCS of them at a time. The global directory and
// entry offsets are refreshed once for the whole batch. Not safe for use
// concurrent with readers: CloneAddTablesBatch is the public path.
func (s *ShardedStore) addTablesBatch(tables []*table.Table) []int32 {
	if len(tables) == 0 {
		return nil
	}
	ids := make([]int32, len(tables))
	perShard := make([][]*table.Table, len(s.shards))
	for i, t := range tables {
		sh := s.shardFor(t.Name)
		g := int32(len(s.refs))
		ids[i] = g
		local := int32(s.shard(sh).NumTables() + len(perShard[sh]))
		s.refs = append(s.refs, shardRef{shard: int32(sh), local: local})
		s.globalTID[sh] = append(s.globalTID[sh], g)
		perShard[sh] = append(perShard[sh], t)
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for sh, group := range perShard {
		if len(group) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, group []*table.Table) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			s.shard(sh).addTablesBatch(group)
		}(sh, group)
	}
	wg.Wait()
	s.recomputeBase()
	return ids
}

// removeTable tombstones one global table id in place; see
// Store.removeTable for the semantics. Not safe for use concurrent with
// readers: CloneRemoveTable is the public path.
func (s *ShardedStore) removeTable(tid int32) error {
	if tid < 0 || int(tid) >= len(s.refs) {
		return berr.New(berr.CodeNotFound, "storage.remove", "no table with id %d", tid)
	}
	r := s.refs[tid]
	return s.shard(int(r.shard)).removeTable(r.local)
}
