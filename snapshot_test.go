package blend

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// snapTable builds a small deterministic table that shares vocabulary
// with the Fig. 1 lake, so seeker results change observably per ingest.
func snapTable(i int) *Table {
	t := NewTable(fmt.Sprintf("Snap%d", i), "Team", "Lead")
	t.MustAppendRow("HR", fmt.Sprintf("Lead%d", i))
	t.MustAppendRow("IT", fmt.Sprintf("Colead%d", i))
	t.MustAppendRow("Finance", "Harry Potter")
	return t
}

// TestSnapshotPinnedUnderConcurrentIngest drives continuous AddTables /
// RemoveTable traffic against concurrent pinned-snapshot queries: a
// pinned snapshot's results never change (no torn reads), repeated reads
// on one snapshot are bit-identical, and the published generation only
// ever moves forward.
func TestSnapshotPinnedUnderConcurrentIngest(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables(), WithShards(2))
	ctx := context.Background()

	pinned, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Release()
	baseline, err := pinned.Seek(ctx, SC(deps, 10))
	if err != nil {
		t.Fatal(err)
	}
	baseGen := pinned.Generation()

	const mutations = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: ingest a fresh table per iteration, removing every third.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < mutations; i++ {
			ids, err := d.AddTables(ctx, []*Table{snapTable(i)})
			if err != nil {
				t.Errorf("add %d: %v", i, err)
				return
			}
			if i%3 == 0 {
				if err := d.RemoveTable(ids[0]); err != nil {
					t.Errorf("remove %d: %v", i, err)
					return
				}
			}
		}
	}()

	// Readers: pin a snapshot, read it twice, require identical results.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := d.Snapshot()
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				g := s.Generation()
				if g < lastGen {
					t.Errorf("generation went backwards: %d after %d", g, lastGen)
				}
				lastGen = g
				first, err := s.Seek(ctx, SC(deps, 10))
				if err != nil {
					t.Errorf("seek: %v", err)
					s.Release()
					return
				}
				second, err := s.Seek(ctx, SC(deps, 10))
				if err != nil {
					t.Errorf("re-seek: %v", err)
					s.Release()
					return
				}
				if !reflect.DeepEqual(first, second) {
					t.Errorf("torn read on pinned snapshot gen %d: %v vs %v", g, first, second)
				}
				if s.Generation() != g {
					t.Errorf("pinned snapshot moved: %d -> %d", g, s.Generation())
				}
				s.Release()
			}
		}()
	}

	// Generation monotonicity, observed independently of any pin.
	var prev atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := d.Generation()
			if p := prev.Load(); g < p {
				t.Errorf("published generation regressed: %d after %d", g, p)
				return
			} else if g > p {
				prev.Store(g)
			}
		}
	}()

	wg.Wait()

	// The snapshot pinned before any ingestion still serves its original
	// results at its original generation.
	again, err := pinned.Seek(ctx, SC(deps, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, baseline) {
		t.Fatalf("pinned snapshot results drifted: %v, want %v", again, baseline)
	}
	if pinned.Generation() != baseGen {
		t.Fatalf("pinned generation drifted: %d, want %d", pinned.Generation(), baseGen)
	}
	if got := d.Generation(); got <= baseGen {
		t.Fatalf("current generation %d did not advance past %d", got, baseGen)
	}
}

// TestWithAsOfMatchesLiveResults is the time-travel property test:
// results under WithAsOf(g) are bit-identical to results captured live
// while g was the current generation, across shard counts ×
// seeker kinds, on both the Seek path and the SnapshotAt handle.
func TestWithAsOfMatchesLiveResults(t *testing.T) {
	ctx := context.Background()
	kinds := map[string]func() Seeker{
		"sc": func() Seeker { return SC(deps, 10) },
		"kw": func() Seeker { return KW(deps, 10) },
		"mc": func() Seeker { return MC([][]string{{"HR"}, {"IT"}}, 10) },
	}
	configs := []struct {
		name   string
		shards int
	}{
		{"column", 1},
		{"column-sharded", 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var opts []IndexOption
			if cfg.shards > 1 {
				opts = append(opts, WithShards(cfg.shards))
			}
			d := IndexTables(ColumnStore, fig1Tables(), opts...)
			d.SetRetention(16)

			live := make(map[uint64]map[string]Hits)
			capture := func() {
				g := d.Generation()
				live[g] = make(map[string]Hits, len(kinds))
				for name, mk := range kinds {
					hits, err := d.Seek(ctx, mk())
					if err != nil {
						t.Fatalf("live %s at gen %d: %v", name, g, err)
					}
					live[g][name] = hits
				}
			}

			capture()
			ids, err := d.AddTables(ctx, []*Table{snapTable(0), snapTable(1)})
			if err != nil {
				t.Fatal(err)
			}
			capture()
			if err := d.RemoveTable(ids[0]); err != nil {
				t.Fatal(err)
			}
			capture()
			if _, err := d.AddTables(ctx, []*Table{snapTable(2)}); err != nil {
				t.Fatal(err)
			}
			capture()

			for g, byKind := range live {
				for name, want := range byKind {
					got, err := d.Seek(ctx, kinds[name](), WithAsOf(g))
					if err != nil {
						t.Fatalf("as-of %s at gen %d: %v", name, g, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("as-of %s at gen %d: %v, want live %v", name, g, got, want)
					}
				}
				// The snapshot handle pinned at g serves the same results.
				s, err := d.SnapshotAt(g)
				if err != nil {
					t.Fatalf("SnapshotAt(%d): %v", g, err)
				}
				for name, want := range byKind {
					got, err := s.Seek(ctx, kinds[name]())
					if err != nil {
						t.Fatalf("snapshot %s at gen %d: %v", name, g, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("snapshot %s at gen %d: %v, want %v", name, g, got, want)
					}
				}
				s.Release()
			}

			// Shrinking the window makes old generations unaddressable with
			// the typed generation-gone error.
			d.SetRetention(1)
			oldest := uint64(1)
			if _, err := d.Seek(ctx, SC(deps, 10), WithAsOf(oldest)); !errors.Is(err, ErrGenerationGone) {
				t.Fatalf("evicted generation: err = %v, want ErrGenerationGone", err)
			}
			if _, err := d.SnapshotAt(oldest); !errors.Is(err, ErrGenerationGone) {
				t.Fatalf("SnapshotAt evicted: err = %v, want ErrGenerationGone", err)
			}
		})
	}
}

// TestWALCrashReplay simulates a crash between a published mutation and
// SaveIndex: the write-ahead log replays the lost mutations on reopen,
// restoring both the generation number and the query results; a
// checkpointed log (SaveIndex) replays nothing.
func TestWALCrashReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")

	d1 := IndexTables(ColumnStore, fig1Tables())
	closeWAL, err := d1.EnableWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := d1.AddTables(ctx, []*Table{snapTable(0), snapTable(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.RemoveTable(ids[1]); err != nil {
		t.Fatal(err)
	}
	wantGen := d1.Generation()
	wantHits, err := d1.Seek(ctx, SC(deps, 10))
	if err != nil {
		t.Fatal(err)
	}
	// "Crash": the index is never saved; only the log survives.
	if err := closeWAL(); err != nil {
		t.Fatal(err)
	}

	// Reopen: rebuild the last saved state (the seed lake) and replay.
	d2 := IndexTables(ColumnStore, fig1Tables())
	closeWAL2, err := d2.EnableWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Generation(); got != wantGen {
		t.Fatalf("replayed generation %d, want %d", got, wantGen)
	}
	gotHits, err := d2.Seek(ctx, SC(deps, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHits, wantHits) {
		t.Fatalf("replayed top-k %v, want %v", gotHits, wantHits)
	}

	// SaveIndex checkpoints the log: a reopen from the saved index must
	// replay nothing (a duplicate replay would fail the ingest with a
	// typed duplicate-table error) and keep the generation numbering.
	idxPath := filepath.Join(dir, "lake.blend")
	if err := d2.SaveIndex(idxPath); err != nil {
		t.Fatal(err)
	}
	if err := closeWAL2(); err != nil {
		t.Fatal(err)
	}
	d3, err := OpenIndex(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	closeWAL3, err := d3.EnableWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer closeWAL3()
	if got := d3.Generation(); got != wantGen {
		t.Fatalf("post-checkpoint generation %d, want %d", got, wantGen)
	}
	checkHits, err := d3.Seek(ctx, SC(deps, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(checkHits, wantHits) {
		t.Fatalf("post-checkpoint top-k %v, want %v", checkHits, wantHits)
	}
}
