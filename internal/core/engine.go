package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"blend/internal/berr"
	"blend/internal/minisql"
	"blend/internal/storage"
	"blend/internal/table"
)

// DefaultSampleH is the default correlation sample size h (§V); the paper's
// experiments use h = 256.
const DefaultSampleH = 256

// Engine executes discovery plans against one indexed data lake. It
// publishes MVCC generation snapshots of the index (see snapshot.go): each
// snapshot carries one SQL catalog exposing the AllTables relation, which
// raw SQL and the seekers' SQL fallback (NoNativeExec) run against. The
// native executors scan the shards of a sharded index concurrently and
// merge their top-k (tables are partitioned whole, so per-table aggregates
// are shard-local).
//
// The engine is safe for concurrent use, and reads never block on writes:
// a query pins the current snapshot once at start and runs lock-free
// against it, while mutations (AddTables, RemoveTable, Compact) serialize
// on writeMu, derive the next store copy-on-write, and publish it
// atomically. Queries started before a mutation keep seeing the old
// generation; queries started after it see the new one.
type Engine struct {
	// snap is the currently published generation; the only synchronization
	// the read path touches (one atomic load + one atomic reference count).
	snap atomic.Pointer[snapshot]

	// writeMu serializes mutations and guards the write-side bookkeeping:
	// the generation counter, the live-name cache, the journal, and the
	// store lineage's file-mapping lease.
	writeMu sync.Mutex
	gen     uint64 // guarded by writeMu
	// names caches the live table names for AddTables' duplicate check,
	// built lazily and maintained incrementally; nil means "rebuild on next
	// use" (RemoveTable invalidates it: the initial index build performs no
	// duplicate check, so deleting one name could drop a live twin).
	names   map[string]struct{} // guarded by writeMu
	journal Journal             // guarded by writeMu
	lease   *storeLease         // guarded by writeMu

	// retained holds the generations pinnable for time travel, oldest
	// first; each entry owns one snapshot reference.
	retainMu  sync.Mutex
	retained  []*snapshot // guarded by retainMu
	retention int         // guarded by retainMu

	// maint counts index maintenance for operators (see MaintStats).
	maintMu sync.Mutex
	maint   MaintStats // guarded by maintMu

	// cache memoizes seeker results when configured (nil otherwise);
	// entries are tagged with the generation they were computed at and
	// swept when that generation leaves the retention window.
	cache atomic.Pointer[resultCache]

	// closed flips once at Close and breaks the pin retry loop.
	closed atomic.Bool

	// shardSem bounds how many per-shard native scans run at once
	// engine-wide, so plan-level and shard-level parallelism compose
	// without oversubscribing the machine. Nil for monolithic stores
	// (the shard count never changes across generations).
	shardSem chan struct{}

	// NoNativeExec forces every seeker through SQL generation and the
	// minisql interpreter — the pre-fast-path behavior, kept for A/B
	// benchmarking and the path-equivalence tests.
	NoNativeExec bool

	// SampleH is the number of leading row ids sampled by the correlation
	// seeker (the `rowid < h` predicate of Listing 3).
	SampleH int
}

// NewEngine wraps an AllTables index for plan execution and publishes it as
// generation 1.
func NewEngine(store *storage.ShardedStore) *Engine {
	e := &Engine{SampleH: DefaultSampleH, retention: DefaultRetainedGenerations}
	e.lease = newStoreLease(store)
	if store.NumShards() > 1 {
		e.shardSem = newShardSem()
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.gen = 1
	e.publish(e.buildSnapshot(store, e.gen))
	return e
}

// Store returns the current generation's index. The returned value is an
// immutable published view: mutations derive new stores rather than
// touching it, but holding it does not pin the generation — the backing
// file mapping may be released once the generation leaves the retention
// window. Prefer the Engine accessors or a Snapshot handle.
func (e *Engine) Store() *storage.ShardedStore { return e.snap.Load().store }

// Catalog returns the current generation's SQL catalog: the one AllTables
// relation over every shard (exposed for tests and advanced embedding).
// Prefer ExecRawSQL, which pins the generation for the statement.
func (e *Engine) Catalog() *minisql.Catalog { return e.snap.Load().cat }

// NumShards reports how many partitions the engine scans per seeker.
func (e *Engine) NumShards() int { return e.snap.Load().store.NumShards() }

// recordBatch updates the ingest counters for one committed batch.
func (e *Engine) recordBatch(tables int, rows uint64, d time.Duration) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.maint.Batches++
	e.maint.TablesAdded += uint64(tables)
	e.maint.RowsAdded += rows
	e.maint.LastBatchTables = tables
	e.maint.LastBatchDuration = d
}

// SetResultCache configures the engine's seeker result cache to hold up to
// capacity entries; capacity <= 0 disables caching. The cache memoizes
// per-seeker top-k lists keyed by (seeker fingerprint, rewrite, store
// generation); entries are swept when their generation leaves the
// retention window, so it never serves stale results and bounds what
// retained history can keep resident. Reconfiguring resets the counters.
func (e *Engine) SetResultCache(capacity int) {
	if capacity <= 0 {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(newResultCache(capacity))
}

// ResultCacheStats snapshots the result cache counters; the zero value is
// returned when no cache is configured.
func (e *Engine) ResultCacheStats() CacheStats {
	c := e.cache.Load()
	if c == nil {
		return CacheStats{}
	}
	return c.stats()
}

// ExecRawSQL runs one SQL statement against the unified AllTables relation
// of the current generation. Invalid statements report typed bad-query
// errors. Cancellation is honored at statement granularity: a context
// already canceled reports the typed canceled code, but the minisql
// executor does not interrupt a statement mid-flight.
func (e *Engine) ExecRawSQL(ctx context.Context, sql string) (*minisql.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, berr.FromContext("sql.exec", err)
	}
	sn, err := e.pin()
	if err != nil {
		return nil, err
	}
	defer e.unpin(sn)
	return minisql.ExecSQL(sn.cat, sql)
}

// ExplainRawSQL renders the execution plan of one SQL statement against
// the unified relation.
func (e *Engine) ExplainRawSQL(sql string) (string, error) {
	sn, err := e.pin()
	if err != nil {
		return "", err
	}
	defer e.unpin(sn)
	return minisql.ExplainSQL(sn.cat, sql)
}

// ComputeStats summarizes the current generation of the index.
func (e *Engine) ComputeStats() storage.Stats {
	sn, err := e.pin()
	if err != nil {
		return storage.Stats{}
	}
	defer e.unpin(sn)
	return sn.store.ComputeStats()
}

// NumTables reports the number of allocated table ids, tombstoned slots
// included — the bound for id-space iteration. See LiveTables for the
// discoverable-table count.
func (e *Engine) NumTables() int {
	sn, err := e.pin()
	if err != nil {
		return 0
	}
	defer e.unpin(sn)
	return sn.store.NumTables()
}

// LiveTables reports the number of discoverable tables: allocated ids
// minus removed-but-not-compacted tombstones.
func (e *Engine) LiveTables() int {
	sn, err := e.pin()
	if err != nil {
		return 0
	}
	defer e.unpin(sn)
	return sn.store.NumTables() - sn.store.Tombstones()
}

// ReconstructTable materializes one indexed table, or nil when the id is
// out of range.
func (e *Engine) ReconstructTable(tid int32) *table.Table {
	sn, err := e.pin()
	if err != nil {
		return nil
	}
	defer e.unpin(sn)
	if tid < 0 || int(tid) >= sn.store.NumTables() {
		return nil
	}
	return sn.store.ReconstructTable(tid)
}

// SizeBytes estimates the resident size of the unified index.
func (e *Engine) SizeBytes() int64 {
	sn, err := e.pin()
	if err != nil {
		return 0
	}
	defer e.unpin(sn)
	return sn.store.SizeBytes()
}

// SaveFile persists the current generation and, when a journal is
// installed, checkpoints it at that generation — the mutations before the
// save need never be replayed again. Serializes with mutations so the
// checkpoint can not run ahead of the bytes on disk.
func (e *Engine) SaveFile(path string) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	sn := e.snap.Load()
	if err := sn.store.SaveFile(path); err != nil {
		return err
	}
	if e.journal != nil {
		if err := e.journal.Checkpoint(sn.gen); err != nil {
			return berr.Wrap(berr.CodeInternal, "engine.wal", err)
		}
	}
	return nil
}

// execSQL runs a seeker's SQL against the AllTables relation of the view's
// pinned snapshot and times it. A context already canceled fails before
// the statement starts; the executor does not interrupt it mid-flight.
func (v *view) execSQL(ctx context.Context, sql string) (*minisql.Result, time.Duration, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	res, err := minisql.ExecSQL(v.sn.cat, sql)
	return res, time.Since(start), err
}

// TableNames maps hits to table names, preserving order, against the
// current generation.
func (e *Engine) TableNames(h Hits) []string {
	sn, err := e.pin()
	if err != nil {
		return make([]string, len(h))
	}
	defer e.unpin(sn)
	return (&view{Engine: e, sn: sn}).tableNames(h)
}

// tableNames is TableNames against the view's pinned snapshot (Run's
// result assembly resolves names at the generation the plan executed at).
func (v *view) tableNames(h Hits) []string {
	out := make([]string, len(h))
	for i, t := range h {
		out[i] = v.sn.store.TableName(t.TableID)
	}
	return out
}
