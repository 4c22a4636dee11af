package core

import (
	"time"

	"blend/internal/berr"
	"blend/internal/table"
)

// Index maintenance: the write path of the engine. Mutations serialize on
// writeMu, derive the next store copy-on-write, append to the journal when
// one is installed, and publish the result as a new generation — in-flight
// queries keep their pinned snapshot, queries started after a mutation
// returns see its effect. Batch ingestion (AddTables) amortizes the
// per-mutation costs — journal append, snapshot build, publish — over the
// whole batch instead of paying them per table.

// MaintStats counts index maintenance since the engine was built; the
// service exposes them as the ingest progress/throughput counters of
// /v1/stats.
type MaintStats struct {
	// Batches counts committed ingest batches (one per AddTables call).
	Batches uint64
	// TablesAdded / RowsAdded count ingested tables and rows.
	TablesAdded uint64
	RowsAdded   uint64
	// TablesRemoved counts RemoveTable tombstones.
	TablesRemoved uint64
	// Compactions counts Compact passes that reclaimed space;
	// TablesCompacted sums the tables they physically removed.
	Compactions     uint64
	TablesCompacted uint64
	// LastBatchTables and LastBatchDuration describe the most recently
	// committed ingest batch (throughput = tables over duration).
	LastBatchTables   int
	LastBatchDuration time.Duration
}

// AddTables appends a batch of tables to the index as one maintenance
// operation: one journal append, one derived store, one published
// generation for the whole batch.
//
// Table names must be unique: a name already indexed (and not removed), or
// repeated within the batch, fails the whole call with a typed
// duplicate-table error and the index unchanged — ingest batches are
// atomic.
func (e *Engine) AddTables(tables []*table.Table) ([]int32, error) {
	if len(tables) == 0 {
		return nil, nil
	}
	start := time.Now()
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	// Duplicate check against the cached live-name set (O(batch), not
	// O(lake), per batch) plus an intra-batch scratch set; the cache is
	// only updated after the batch commits, so a rejected batch leaves it
	// clean.
	names := e.liveNamesLocked()
	batch := make(map[string]struct{}, len(tables))
	for _, t := range tables {
		if _, dup := names[t.Name]; dup {
			return nil, berr.New(berr.CodeDuplicateTable, "engine.ingest",
				"table %q is already indexed", t.Name)
		}
		if _, dup := batch[t.Name]; dup {
			return nil, berr.New(berr.CodeDuplicateTable, "engine.ingest",
				"table %q appears twice in the batch", t.Name)
		}
		batch[t.Name] = struct{}{}
	}
	if e.journal != nil {
		if err := e.journal.AddTables(tables); err != nil {
			return nil, berr.Wrap(berr.CodeInternal, "engine.wal", err)
		}
	}
	next, ids := e.snap.Load().store.CloneAddTablesBatch(tables)
	e.gen++
	e.publish(e.buildSnapshot(next, e.gen))
	for _, t := range tables {
		names[t.Name] = struct{}{}
	}
	rows := uint64(0)
	for _, t := range tables {
		rows += uint64(len(t.Rows))
	}
	e.recordBatch(len(ids), rows, time.Since(start))
	return ids, nil
}

// RemoveTable tombstones one table: it immediately disappears from every
// query path of the new generation (seekers, raw SQL, reconstruction, name
// lookups) while its entries stay allocated until Compact reclaims them —
// and while retained historical generations still serve it to time-travel
// queries. Memoized results referencing the table stay reachable only
// under their historical generation keys and are swept when that
// generation leaves the retention window. An unknown or already-removed id
// reports a typed not-found error with the index unchanged.
func (e *Engine) RemoveTable(tid int32) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	next, err := e.snap.Load().store.CloneRemoveTable(tid)
	if err != nil {
		return err
	}
	if e.journal != nil {
		if err := e.journal.RemoveTable(tid); err != nil {
			return berr.Wrap(berr.CodeInternal, "engine.wal", err)
		}
	}
	e.gen++
	e.publish(e.buildSnapshot(next, e.gen))
	e.names = nil // see the field comment: removals invalidate the name cache
	e.maintMu.Lock()
	e.maint.TablesRemoved++
	e.maintMu.Unlock()
	return nil
}

// Compact physically reclaims every tombstoned table and returns how many
// were removed. The new generation is rebuilt from scratch, so table ids
// are reassigned contiguously; retained and pinned older generations keep
// the old numbering. Callers holding ids from before the compaction
// must re-resolve them by name. A lake without tombstones returns 0
// without publishing. A journal append failure returns a typed internal
// error wrapping the cause, with nothing published and the generation
// unchanged.
func (e *Engine) Compact() (int, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	next, removed := e.snap.Load().store.CloneCompact()
	if removed == 0 {
		return 0, nil
	}
	if e.journal != nil {
		if err := e.journal.Compact(); err != nil {
			return 0, berr.Wrap(berr.CodeInternal, "engine.wal", err)
		}
	}
	e.gen++
	e.publish(e.buildSnapshot(next, e.gen))
	e.maintMu.Lock()
	e.maint.Compactions++
	e.maint.TablesCompacted += uint64(removed)
	e.maintMu.Unlock()
	return removed, nil
}

// liveNamesLocked returns the cached live table-name set, building it
// once per invalidation from the current snapshot.
//
// lockguard: caller holds writeMu
func (e *Engine) liveNamesLocked() map[string]struct{} {
	if e.names == nil {
		store := e.snap.Load().store
		e.names = make(map[string]struct{}, store.NumTables())
		for tid := 0; tid < store.NumTables(); tid++ {
			if n := store.TableName(int32(tid)); n != "" {
				e.names[n] = struct{}{}
			}
		}
	}
	return e.names
}

// MaintStats snapshots the maintenance counters.
func (e *Engine) MaintStats() MaintStats {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	return e.maint
}

// TableIDByName resolves a live table name to its current id (-1 when
// absent) against the current generation — the stable way to re-find a
// table across compactions, which reassign ids.
func (e *Engine) TableIDByName(name string) int32 {
	sn, err := e.pin(0)
	if err != nil {
		return -1
	}
	return sn.store.TableIDByName(name)
}
