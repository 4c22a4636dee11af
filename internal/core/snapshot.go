package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// historical snapshot by number (time travel) through SnapshotAt. A
// snapshot owns nothing but heap memory, so pinning is just holding a
// pointer: a generation lives as long as the retention list or any query
// or handle refers to it, and the garbage collector frees it after that.

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

	// Lazily built embedding side-index for the SemanticSeeker extension.
	// Snapshots are immutable, so it is built at most once per generation.
	semMu  sync.Mutex
	semIdx *semanticIdx // guarded by semMu
}

// errClosed is the error every pin and snapshot query returns once the
// engine is closed.
func errClosed() error {
	return berr.New(berr.CodeInternal, "engine.snapshot", "engine is closed")
}

// pin returns generation gen, with 0 meaning "current"; a closed engine
// fails first, whatever gen is. A generation that has fallen out of (or
// never entered) the retention window reports a typed generation-gone
// error.
func (e *Engine) pin(gen uint64) (*snapshot, error) {
	if e.closed.Load() {
		return nil, errClosed()
	}
	if gen == 0 {
		return e.snap.Load(), nil
	}
	e.retainMu.Lock()
	defer e.retainMu.Unlock()
	for _, sn := range e.retained {
		if sn.gen == gen {
			return sn, nil
		}
	}
	// Close marks the engine closed before it drops the retention list
	// under retainMu, so an empty list here means a Close won the race.
	if e.closed.Load() {
		return nil, errClosed()
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
	e.sweepEvicted(evicted, oldest)
}

// evictLocked trims the retention list to the configured bound, returning
// whether it evicted anything and the oldest still-retained generation.
//
// lockguard: caller holds retainMu
func (e *Engine) evictLocked() (evicted bool, oldest uint64) {
	for len(e.retained) > e.retention {
		e.retained[0] = nil // release the backing-array slot for GC
		e.retained = e.retained[1:]
		evicted = true
	}
	if len(e.retained) > 0 {
		oldest = e.retained[0].gen
	}
	return evicted, oldest
}

// sweepEvicted, after an eviction, sweeps the result cache of every
// generation below the oldest retained one — the bounded sweep that keeps
// retained-generation memory accounted instead of waiting for LRU
// pressure.
func (e *Engine) sweepEvicted(evicted bool, oldest uint64) {
	if !evicted {
		return
	}
	if c := e.cache.Load(); c != nil {
		c.sweepBelow(oldest)
	}
}

// buildSnapshot assembles the derived read state for one generation of the
// store: the SQL catalog holding the one AllTables relation.
//
// lockguard: caller holds writeMu
func (e *Engine) buildSnapshot(store *storage.ShardedStore, gen uint64) *snapshot {
	cat := minisql.NewCatalog()
	cat.Register(alltables.Name, alltables.New(store))
	return &snapshot{gen: gen, store: store, cat: cat}
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
	e.sweepEvicted(evicted, oldest)
}

// Close marks the engine closed and drops the retention list: new pins
// and queries through existing handles fail with the closed error, while
// queries already running finish on the generation they pinned. It
// always returns nil; closing twice is a no-op.
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.retainMu.Lock()
	e.retained = nil
	e.retainMu.Unlock()
	return nil
}

// Snapshot is a pinned generation handle: queries run through it see the
// index exactly as it was when the handle was taken, regardless of
// concurrent ingestion, until Release or the engine's Close. The handle
// keeps its generation alive on its own; Release only marks it released.
type Snapshot struct {
	e        *Engine
	sn       *snapshot
	released atomic.Bool
}

// SnapshotAt pins retained generation gen (0 means current); a generation
// outside the retention window reports a typed generation-gone error, and
// a closed engine the closed error.
func (e *Engine) SnapshotAt(gen uint64) (*Snapshot, error) {
	sn, err := e.pin(gen)
	if err != nil {
		return nil, err
	}
	return &Snapshot{e: e, sn: sn}, nil
}

// Generation reports the pinned generation.
func (s *Snapshot) Generation() uint64 { return s.sn.gen }

// usable fails a query through a handle whose engine is closed or which
// was already released.
func (s *Snapshot) usable() error {
	if s.e.closed.Load() {
		return errClosed()
	}
	if s.released.Load() {
		return berr.New(berr.CodeBadRequest, "engine.snapshot", "snapshot already released")
	}
	return nil
}

// Run executes a plan against the pinned generation — the one plan path
// under Engine.Run. A nil ctx means context.Background(). On cancellation
// the returned error carries the typed canceled/deadline code and wraps
// the context's error; partial results are discarded.
func (s *Snapshot) Run(ctx context.Context, p *Plan, opts RunOptions) (*PlanResult, error) {
	start := time.Now()
	if err := s.usable(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, berr.FromContext("plan.run", err)
	}
	ex, topo, err := newPlanExec(&view{Engine: s.e, sn: s.sn}, p, opts)
	if err != nil {
		return nil, err
	}
	if err := ex.runScheduled(ctx, topo); err != nil {
		return nil, contextError("plan.run", err)
	}
	res := ex.res
	res.SeekerOrder = ex.emissionOrder(topo)
	res.CompletionOrder = ex.completion
	res.PeakConcurrency = int(ex.peak)
	res.Output = res.NodeHits[p.output]
	res.Tables = ex.v.tableNames(res.Output)
	res.Duration = time.Since(start)
	return res, nil
}

// RunSeeker executes one seeker against the pinned generation — the one
// seeker path under Engine.RunSeeker. A nil ctx means
// context.Background().
func (s *Snapshot) RunSeeker(ctx context.Context, seeker Seeker) (Hits, RunStats, error) {
	if err := s.usable(); err != nil {
		return nil, RunStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, RunStats{}, berr.FromContext("seeker.run", err)
	}
	hits, stats, err := (&view{Engine: s.e, sn: s.sn}).seek(ctx, seeker, NoRewrite)
	if err != nil {
		return nil, stats, contextError("seeker.run", err)
	}
	return hits, stats, nil
}

// TableNames maps hits to table names at the pinned generation, so hits
// of a historical generation are named as they were then.
func (s *Snapshot) TableNames(h Hits) []string {
	return (&view{Engine: s.e, sn: s.sn}).tableNames(h)
}

// Release marks the handle released; further queries through it fail.
// Releasing twice is a no-op.
func (s *Snapshot) Release() { s.released.Store(true) }

// newShardSem sizes the engine-wide shard-execution semaphore.
func newShardSem() chan struct{} {
	return make(chan struct{}, runtime.GOMAXPROCS(0))
}
