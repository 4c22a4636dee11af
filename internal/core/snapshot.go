package core

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"blend/internal/alltables"
	"blend/internal/berr"
	"blend/internal/minisql"
	"blend/internal/storage"
	"blend/internal/table"
)

// MVCC generation snapshots. Every index mutation builds a new immutable
// store view copy-on-write (the storage.ShardedStore Clone* methods) and
// publishes it atomically:
// the engine holds a single atomic pointer to the current snapshot, and a
// query resolves that pointer exactly once at start. From then on the query
// reads only the pinned snapshot — no lock is taken on the read path, so
// readers never wait for ingestion and ingestion never waits for readers.
//
// The last few generations are retained (SetRetention) so callers can pin a
// historical snapshot by number (time travel): RunOptions.AsOf or an
// explicit Snapshot handle. Each retained generation holds one reference;
// queries add theirs while they run. When the last reference to a snapshot
// drops, its share of the backing file mapping is released.

// DefaultRetainedGenerations is how many published generations the engine
// keeps pinnable for time travel unless SetRetention overrides it.
const DefaultRetainedGenerations = 4

// snapshot is one published, immutable generation of the index: the store
// view plus every piece of derived read state (the SQL catalog, the lazily
// built semantic ANN side-index).
type snapshot struct {
	gen   uint64
	store *storage.ShardedStore
	cat   *minisql.Catalog // the AllTables relation over this generation's store

	// refs counts the retention list's reference (1, dropped when the
	// generation falls out of the window) plus one per in-flight pin. It
	// never goes back up from 0: pinning races a concurrent release by
	// CAS-incrementing only positive counts.
	refs atomic.Int64
	// lease shares the store lineage's file mapping; released when refs
	// hits zero.
	lease *storeLease

	// Lazily built embedding side-index for the SemanticSeeker extension.
	// Snapshots are immutable, so it is built at most once per generation.
	semMu  sync.Mutex
	semIdx *semanticIdx // guarded by semMu
}

// tryPin atomically takes a reference unless the snapshot is already dead
// (refs 0 means the last release ran and the lease may be closed).
func (sn *snapshot) tryPin() bool {
	for {
		n := sn.refs.Load()
		if n <= 0 {
			return false
		}
		if sn.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unpin drops one reference, releasing the snapshot's share of the file
// mapping when it was the last.
func (e *Engine) unpin(sn *snapshot) {
	if sn.refs.Add(-1) == 0 {
		sn.lease.release()
	}
}

// pin resolves and references the current snapshot. It can loop: between
// loading the pointer and taking the reference, a burst of publishes may
// retire the loaded generation past the retention window; the reload then
// observes a newer pointer. Fails only once the engine is closed.
func (e *Engine) pin() (*snapshot, error) {
	for {
		if e.closed.Load() {
			return nil, berr.New(berr.CodeInternal, "engine.snapshot", "engine is closed")
		}
		if sn := e.snap.Load(); sn.tryPin() {
			return sn, nil
		}
	}
}

// pinAt references generation gen, with 0 meaning "current". A generation
// that has fallen out of (or never entered) the retention window reports a
// typed generation-gone error.
func (e *Engine) pinAt(gen uint64) (*snapshot, error) {
	if gen == 0 {
		return e.pin()
	}
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	for _, sn := range e.retained {
		if sn.gen == gen {
			// The retention list's own reference keeps refs positive while
			// we hold retainMu, so a plain increment cannot race a death.
			sn.refs.Add(1)
			return sn, nil
		}
	}
	cur := uint64(0)
	if n := len(e.retained); n > 0 {
		cur = e.retained[n-1].gen
	}
	return nil, berr.New(berr.CodeGenerationGone, "engine.snapshot",
		"generation %d is not retained (current %d, retention %d)", gen, cur, e.retention)
}

// publish installs sn as the current snapshot and retires whatever fell out
// of the retention window, sweeping their cache entries.
//
// lockguard: caller holds writeMu
func (e *Engine) publish(sn *snapshot) {
	e.snap.Store(sn)
	e.retire(sn)
}

// retire appends sn to the retention list and evicts beyond the configured
// bound.
func (e *Engine) retire(sn *snapshot) {
	e.retainMu.Lock()
	e.retained = append(e.retained, sn)
	evicted, oldest := e.evictLocked()
	e.retainMu.Unlock()
	e.releaseEvicted(evicted, oldest)
}

// evictLocked trims the retention list to the configured bound, returning
// the evicted snapshots and the oldest still-retained generation.
//
// lockguard: caller holds retainMu
func (e *Engine) evictLocked() (evicted []*snapshot, oldest uint64) {
	for len(e.retained) > e.retention {
		evicted = append(evicted, e.retained[0])
		e.retained[0] = nil // release the backing-array slot for GC
		e.retained = e.retained[1:]
	}
	if len(e.retained) > 0 {
		oldest = e.retained[0].gen
	}
	return evicted, oldest
}

// releaseEvicted drops the retention references of evicted snapshots and
// sweeps the result cache of every generation below the oldest retained one
// — the bounded sweep that keeps retained-generation memory accounted
// instead of waiting for LRU pressure.
func (e *Engine) releaseEvicted(evicted []*snapshot, oldest uint64) {
	if len(evicted) == 0 {
		return
	}
	for _, old := range evicted {
		e.unpin(old)
	}
	if c := e.cache.Load(); c != nil {
		c.sweepBelow(oldest)
	}
}

// buildSnapshot assembles the derived read state for one generation of the
// store: the SQL catalog holding the one AllTables relation, and a
// reference on the lineage's file-mapping lease.
//
// lockguard: caller holds writeMu
func (e *Engine) buildSnapshot(store *storage.ShardedStore, gen uint64) *snapshot {
	cat := minisql.NewCatalog()
	cat.Register(alltables.Name, alltables.New(store))
	sn := &snapshot{gen: gen, store: store, cat: cat, lease: e.lease}
	sn.refs.Store(1) // the retention list's reference; see publish
	sn.lease.acquire()
	return sn
}

// storeLease shares ownership of a store lineage's closeable backing (the
// mmap segment file; closing a heap-built store is a no-op) across the
// generations derived from it: every snapshot in the lineage holds one
// reference, and the file closes when the last referencing snapshot is
// released.
type storeLease struct {
	refs atomic.Int64
	c    io.Closer
	once sync.Once
	err  error // guarded by once: written inside Do, read after it returns
}

// newStoreLease wraps a store's closeable backing.
func newStoreLease(store *storage.ShardedStore) *storeLease {
	return &storeLease{c: store}
}

func (l *storeLease) acquire() { l.refs.Add(1) }

func (l *storeLease) release() {
	if l.refs.Add(-1) == 0 {
		l.once.Do(func() { l.err = l.c.Close() })
	}
}

// closeErr reports the close error once the lease has fully released; nil
// while references remain.
func (l *storeLease) closeErr() error {
	if l.refs.Load() > 0 {
		return nil
	}
	l.once.Do(func() { l.err = l.c.Close() })
	return l.err
}

// view is the read-side execution context: the engine's immutable knobs
// (sample size, native toggle, shard semaphore) plus one
// pinned snapshot. Every seeker and executor runs against a view, so a
// query's store resolution happens exactly once — at pin time — and the
// read path never touches engine synchronization again.
type view struct {
	*Engine
	sn *snapshot
}

// Journal is the write-ahead log the engine appends to before publishing a
// mutation, so a crash between a publish and the next durable Save replays
// to the published generation on reopen. storage.WAL implements it.
type Journal interface {
	AddTables(tables []*table.Table) error
	RemoveTable(tid int32) error
	Compact() error
	Checkpoint(gen uint64) error
}

// SetJournal installs (or, with nil, removes) the mutation journal.
// Install it before mutations begin; replayed records should be applied
// through the engine first, then the journal attached.
func (e *Engine) SetJournal(j Journal) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.journal = j
}

// SeedGeneration fast-forwards the generation counter to gen and
// republishes the current store under it — used at open, when a journal
// checkpoint records the generation a saved index was persisted at, so
// numbering stays continuous across restarts. Generations at or below the
// current one are ignored.
func (e *Engine) SeedGeneration(gen uint64) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if gen <= e.gen {
		return
	}
	e.gen = gen
	e.publish(e.buildSnapshot(e.snap.Load().store, gen))
}

// Generation reports the currently published generation. Generations start
// at 1 and increase by one per committed mutation.
func (e *Engine) Generation() uint64 { return e.snap.Load().gen }

// RetainedGenerations lists the generations currently pinnable for time
// travel, oldest first; the last entry is the current generation.
func (e *Engine) RetainedGenerations() []uint64 {
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	out := make([]uint64, len(e.retained))
	for i, sn := range e.retained {
		out[i] = sn.gen
	}
	return out
}

// SetRetention bounds how many generations stay pinnable (minimum 1, the
// current one). Shrinking the window releases the excess immediately.
func (e *Engine) SetRetention(n int) {
	if n < 1 {
		n = 1
	}
	e.retainMu.Lock()
	e.retention = n
	evicted, oldest := e.evictLocked()
	e.retainMu.Unlock()
	e.releaseEvicted(evicted, oldest)
}

// Close releases every retained generation and marks the engine closed:
// new pins fail, and the backing file mapping closes as soon as the last
// in-flight query unpins. Closing twice is a no-op.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	var retained []*snapshot
	e.retainMu.Lock()
	retained, e.retained = e.retained, nil
	e.retainMu.Unlock()
	for _, sn := range retained {
		e.unpin(sn)
	}
	e.writeMu.Lock()
	l := e.lease
	e.writeMu.Unlock()
	return l.closeErr()
}

// Snapshot is a pinned generation handle: queries run through it see the
// index exactly as it was when the handle was taken, regardless of
// concurrent ingestion, until Release. A handle must be released exactly
// once; queries racing the Release are the caller's bug.
type Snapshot struct {
	e        *Engine
	sn       *snapshot
	released atomic.Bool
}

// Snapshot pins the current generation and returns its handle.
func (e *Engine) Snapshot() (*Snapshot, error) {
	sn, err := e.pin()
	if err != nil {
		return nil, err
	}
	return &Snapshot{e: e, sn: sn}, nil
}

// SnapshotAt pins retained generation gen (0 means current); a generation
// outside the retention window reports a typed generation-gone error.
func (e *Engine) SnapshotAt(gen uint64) (*Snapshot, error) {
	sn, err := e.pinAt(gen)
	if err != nil {
		return nil, err
	}
	return &Snapshot{e: e, sn: sn}, nil
}

// Generation reports the pinned generation.
func (s *Snapshot) Generation() uint64 { return s.sn.gen }

// Run executes a plan against the pinned generation. RunOptions.AsOf is
// ignored — the handle already fixes the generation.
func (s *Snapshot) Run(ctx context.Context, p *Plan, opts RunOptions) (*PlanResult, error) {
	if s.released.Load() {
		return nil, berr.New(berr.CodeBadRequest, "engine.snapshot", "snapshot already released")
	}
	return s.e.runPinned(ctx, s.sn, p, opts)
}

// RunSeeker executes one seeker against the pinned generation.
func (s *Snapshot) RunSeeker(ctx context.Context, seeker Seeker) (Hits, RunStats, error) {
	if s.released.Load() {
		return nil, RunStats{}, berr.New(berr.CodeBadRequest, "engine.snapshot", "snapshot already released")
	}
	return s.e.runSeekerPinned(ctx, s.sn, seeker)
}

// Release unpins the generation; further queries through the handle fail.
// Releasing twice is a no-op.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.e.unpin(s.sn)
}

// newShardSem sizes the engine-wide shard-execution semaphore.
func newShardSem() chan struct{} {
	return make(chan struct{}, runtime.GOMAXPROCS(0))
}
