package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"blend/internal/datalake"
	"blend/internal/storage"
	"blend/internal/table"
)

// Tests for the engine's batch-maintenance surface: AddTables batching
// semantics and cache behavior, RemoveTable/Compact lifecycle, and the
// native-vs-SQL equivalence property across a remove+compact cycle.

func maintLake(prefix string, n int) []*table.Table {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: prefix, NumTables: n, ColsPerTable: 3, RowsPerTable: 30,
		VocabSize: 200, Seed: 17,
	})
	return lake.Tables
}

func TestAddTablesBatchVisibilityAndCounters(t *testing.T) {
	base := maintLake("base", 6)
	e := NewEngine(storage.Build(base, 4))
	add := maintLake("extra", 10)
	ids, err := e.AddTables(add)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("AddTables returned %d ids", len(ids))
	}
	if e.NumTables() != 16 {
		t.Fatalf("NumTables = %d", e.NumTables())
	}
	// The batch is immediately discoverable.
	sc := NewSC([]string{add[0].Cell(0, 0)}, 32)
	hits, _, err := e.RunSeeker(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.TableID == ids[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("batch-added table not discoverable")
	}
	ms := e.MaintStats()
	if ms.Batches != 1 || ms.TablesAdded != 10 {
		t.Fatalf("maint stats = %+v", ms)
	}
	if ms.RowsAdded != 10*30 {
		t.Fatalf("RowsAdded = %d", ms.RowsAdded)
	}
	if ms.LastBatchTables != 10 || ms.LastBatchDuration <= 0 {
		t.Fatalf("last batch stats = %+v", ms)
	}
}

func TestAddTablesRejectsDuplicates(t *testing.T) {
	base := maintLake("dup", 4)
	e := NewEngine(storage.Build(base, 1))
	before := e.NumTables()

	// Duplicate against the existing index.
	clash := table.New(base[2].Name, "A")
	clash.MustAppendRow("x")
	if _, err := e.AddTables([]*table.Table{clash}); err == nil {
		t.Fatal("duplicate against index must fail")
	}
	// Duplicate within the batch.
	a := table.New("fresh", "A")
	a.MustAppendRow("x")
	b := table.New("fresh", "B")
	b.MustAppendRow("y")
	if _, err := e.AddTables([]*table.Table{a, b}); err == nil {
		t.Fatal("duplicate within batch must fail")
	}
	// Atomicity: nothing from the failed batches landed.
	if e.NumTables() != before {
		t.Fatalf("failed batches mutated the index: %d tables, want %d", e.NumTables(), before)
	}
	ms := e.MaintStats()
	if ms.Batches != 0 || ms.TablesAdded != 0 {
		t.Fatalf("failed batches counted: %+v", ms)
	}
	// A removed table's name is free for re-ingest.
	if err := e.RemoveTable(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddTables([]*table.Table{clash}); err != nil {
		t.Fatalf("re-ingest of removed name: %v", err)
	}
}

func TestBatchCachePurgeOncePerBatch(t *testing.T) {
	base := maintLake("cache", 6)
	e := NewEngine(storage.Build(base, 1))
	e.SetResultCache(32)
	e.SetRetention(1)
	sc := NewSC([]string{base[0].Cell(0, 0)}, 8)
	warm := func() {
		if _, _, err := e.RunSeeker(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm() // second run hits
	if cs := e.ResultCacheStats(); cs.Hits != 1 {
		t.Fatalf("warm-up hits = %d", cs.Hits)
	}

	// One AddTables batch of 5 publishes exactly one generation — the
	// retention window moves once, sweeping the warmed generation in one
	// pass, where a sequential AddTable loop would sweep five times.
	genBefore := e.Generation()
	if _, err := e.AddTables(maintLake("more", 5)); err != nil {
		t.Fatal(err)
	}
	if got := e.Generation(); got != genBefore+1 {
		t.Fatalf("batch published %d generations, want 1", got-genBefore)
	}
	if cs := e.ResultCacheStats(); cs.Invalidations != 1 {
		t.Fatalf("batch caused %d invalidations, want 1", cs.Invalidations)
	}

	// RemoveTable follows the same retention rule: the old generation dies
	// (retention 1), so its entry is swept and the re-warmed key misses.
	warm()
	missesBefore := e.ResultCacheStats().Misses
	if err := e.RemoveTable(1); err != nil {
		t.Fatal(err)
	}
	cs := e.ResultCacheStats()
	if cs.Invalidations != 2 || cs.Entries != 0 {
		t.Fatalf("RemoveTable must sweep the dead generation: %+v", cs)
	}
	warm()
	if e.ResultCacheStats().Misses != missesBefore+1 {
		t.Fatal("post-remove lookup must miss (generation moved)")
	}

	// Compact needs no special casing: its publish moves the window too,
	// and the pre-compaction entry dies with its generation.
	if n, err := e.Compact(); err != nil || n != 1 {
		t.Fatalf("compact must reclaim the tombstone: %d, %v", n, err)
	}
	if cs := e.ResultCacheStats(); cs.Invalidations != 3 || cs.Entries != 0 {
		t.Fatalf("compact must sweep: %+v", cs)
	}
}

func TestRemoveTableHiddenFromQueries(t *testing.T) {
	base := maintLake("rm", 8)
	e := NewEngine(storage.Build(base, 4))
	victim := int32(3)
	val := base[victim].Cell(0, 0)
	if err := e.RemoveTable(victim); err != nil {
		t.Fatal(err)
	}
	// Seeker path.
	hits, _, err := e.RunSeeker(context.Background(), NewSC([]string{val}, 32))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.TableID == victim {
			t.Fatal("seeker returned the removed table")
		}
	}
	// Raw SQL full-scan path: no rows of the removed table survive.
	res, err := e.ExecRawSQL(context.Background(),
		"SELECT TableId FROM AllTables WHERE TableId = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Fatalf("raw SQL still sees %d rows of the removed table", res.NumRows())
	}
	// Reconstruction path.
	if e.ReconstructTable(victim) != nil {
		t.Fatal("removed table still reconstructs")
	}
	// Typed error on unknown / double removal.
	if err := e.RemoveTable(victim); err == nil {
		t.Fatal("double remove must fail")
	}
	ms := e.MaintStats()
	if ms.TablesRemoved != 1 {
		t.Fatalf("TablesRemoved = %d", ms.TablesRemoved)
	}
}

// TestNativeSQLEquivalenceAfterRemoveCompact extends the fast-path
// property test across the table lifecycle: after RemoveTable the two
// paths must agree (both hiding the tombstoned table), and after Compact
// they must agree again over the renumbered id space.
func TestNativeSQLEquivalenceAfterRemoveCompact(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "eqrm", NumTables: 20, ColsPerTable: 3, RowsPerTable: 40,
		VocabSize: 250, Seed: 23,
	})
	rng := rand.New(rand.NewSource(99))
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			native, sql := buildNativeTestEngines(cfg.shards, lake)
			queries := make([][]string, 6)
			for i := range queries {
				queries[i] = lake.QueryColumn(15 + rng.Intn(25))
			}
			check := func(stage string) {
				for qi, q := range queries {
					k := 1 + rng.Intn(24)
					runBoth(t, native, sql, NewSC(q, k), Rewrite{}, stage)
					runBoth(t, native, sql, NewKW(q, k), Rewrite{}, stage)
					_ = qi
				}
			}
			check("pre-remove")
			// Each engine owns its generation lineage now, so the removal
			// is applied to both (copy-on-write: mutating one engine no
			// longer leaks into the other's published store).
			for _, e := range []*Engine{native, sql} {
				for _, tid := range []int32{2, 7} {
					if err := e.RemoveTable(tid); err != nil {
						t.Fatal(err)
					}
				}
			}
			check("post-remove")
			for _, e := range []*Engine{native, sql} {
				if got, err := e.Compact(); err != nil || got != 2 {
					t.Fatalf("Compact = %d, %v; want 2", got, err)
				}
			}
			check("post-compact")
			if native.NumTables() != 18 {
				t.Fatalf("NumTables = %d after compact", native.NumTables())
			}
		})
	}
}

func TestLiveTablesExcludesTombstones(t *testing.T) {
	base := maintLake("live", 6)
	e := NewEngine(storage.Build(base, 2))
	if e.LiveTables() != 6 || e.NumTables() != 6 {
		t.Fatalf("fresh lake: live=%d total=%d", e.LiveTables(), e.NumTables())
	}
	if err := e.RemoveTable(2); err != nil {
		t.Fatal(err)
	}
	if e.LiveTables() != 5 || e.NumTables() != 6 {
		t.Fatalf("post-remove: live=%d total=%d", e.LiveTables(), e.NumTables())
	}
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.LiveTables() != 5 || e.NumTables() != 5 {
		t.Fatalf("post-compact: live=%d total=%d", e.LiveTables(), e.NumTables())
	}
}

func TestSemanticIndexRebuiltAfterRemove(t *testing.T) {
	base := maintLake("sem", 6)
	e := NewEngine(storage.Build(base, 1))
	sem := NewSemantic([]string{base[2].Cell(0, 1)}, 12)
	hits, _, err := e.RunSeeker(context.Background(), sem)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("semantic seeker found nothing")
	}
	if err := e.RemoveTable(2); err != nil {
		t.Fatal(err)
	}
	hits, _, err = e.RunSeeker(context.Background(), sem)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if h.TableID == 2 {
			t.Fatal("ANN index still serves the removed table")
		}
	}
}

func TestMaintenanceConcurrentWithQueries(t *testing.T) {
	base := maintLake("conc", 8)
	e := NewEngine(storage.Build(base, 4))
	e.SetResultCache(64)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		q := []string{base[0].Cell(0, 0), base[1].Cell(0, 0)}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := e.RunSeeker(context.Background(), NewSC(q, 8)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := e.AddTables(maintLake(fmt.Sprintf("conc-extra%d", i), 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RemoveTable(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	if e.MaintStats().TablesRemoved != 1 {
		t.Fatal("maintenance counters lost")
	}
}
