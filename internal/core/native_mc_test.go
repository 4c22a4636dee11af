package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"blend/internal/datalake"
	"blend/internal/storage"
)

// mcQueryTuples draws a mixed MC input: planted rows from a real lake
// table (guaranteed hits) plus noise tuples assembled from the vocabulary
// (mostly XASH-prunable misses), so every stage of the funnel is
// exercised.
func mcQueryTuples(rng *rand.Rand, lake *datalake.JoinLake, n, width int) [][]string {
	tuples, _ := lake.QueryTuples(n, width)
	noise := 1 + rng.Intn(3)
	for i := 0; i < noise; i++ {
		row := make([]string, width)
		for c := range row {
			row[c] = lake.Vocab[rng.Intn(len(lake.Vocab))]
		}
		tuples = append(tuples, row)
	}
	return tuples
}

// TestNativeMCSQLEquivalence is the multi-column fast-path property test:
// for random lakes, random tuple sets of varying width, random k, with and
// without optimizer rewrites, across shard counts, the native
// MC executor and the SQL interpreter must return identical top-k lists
// and identical funnel counters.
func TestNativeMCSQLEquivalence(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "mceq", NumTables: 20, ColsPerTable: 4, RowsPerTable: 30,
		VocabSize: 150, Seed: 17,
	})
	rng := rand.New(rand.NewSource(171))
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			native, sql := buildNativeTestEngines(cfg.shards, lake)
			numTables := int32(native.Store().NumTables())
			for trial := 0; trial < 20; trial++ {
				width := 1 + rng.Intn(4)
				tuples := mcQueryTuples(rng, lake, 1+rng.Intn(6), width)
				k := 1 + rng.Intn(12)
				rw := NoRewrite
				switch rng.Intn(3) {
				case 1:
					rw = IncludeTables(randomTableIDs(rng, numTables))
				case 2:
					rw = ExcludeTables(randomTableIDs(rng, numTables))
				}
				label := fmt.Sprintf("trial %d (tuples=%d width=%d k=%d rw=%d)",
					trial, len(tuples), width, k, rw.mode)
				runBoth(t, native, sql, NewMC(tuples, k), rw, label)
			}
		})
	}
}

// TestNativeMCEquivalenceAfterRemoveCompact extends the MC property test
// across the table lifecycle: both paths must agree over tombstoned stores
// (the removed tables invisible to posting scans and SQL alike) and again
// over the renumbered id space after Compact.
func TestNativeMCEquivalenceAfterRemoveCompact(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "mcrm", NumTables: 16, ColsPerTable: 3, RowsPerTable: 25,
		VocabSize: 120, Seed: 29,
	})
	rng := rand.New(rand.NewSource(291))
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			native, sql := buildNativeTestEngines(cfg.shards, lake)
			check := func(stage string) {
				for trial := 0; trial < 5; trial++ {
					width := 1 + rng.Intn(3)
					tuples := mcQueryTuples(rng, lake, 1+rng.Intn(5), width)
					label := fmt.Sprintf("%s trial %d", stage, trial)
					runBoth(t, native, sql, NewMC(tuples, 1+rng.Intn(10)), NoRewrite, label)
				}
			}
			check("pre-remove")
			// Copy-on-write generations: each engine must apply the
			// mutation to its own lineage.
			for _, e := range []*Engine{native, sql} {
				for _, tid := range []int32{3, 9} {
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
		})
	}
}

// TestNativeMCDeterministicTies asserts the tie-break contract on the MC
// path: cloned tables validate the same row counts, so their scores tie
// and must order by ascending TableId, identically across repeated runs
// and across both paths.
func TestNativeMCDeterministicTies(t *testing.T) {
	lakeTables := fig1Lake()
	for i := 0; i < 3; i++ {
		c := lakeTables[1].Clone()
		c.Name = fmt.Sprintf("McTie%d", i)
		lakeTables = append(lakeTables, c)
	}
	tuples := [][]string{{"HR", "Firenze"}, {"IT", "Tom Riddle"}}
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			idx := storage.Build(lakeTables, cfg.shards)
			native := NewEngine(idx)
			sql := NewEngine(idx)
			sql.NoNativeExec = true
			s := NewMC(tuples, 6)
			first, _, err := native.RunSeeker(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				again, _, err := native.RunSeeker(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("native run %d differs: %v vs %v", i, again, first)
				}
				viaSQL, _, err := sql.RunSeeker(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(first, viaSQL) {
					t.Fatalf("sql run %d differs: %v vs %v", i, viaSQL, first)
				}
			}
			for i := 1; i < len(first); i++ {
				prev, cur := first[i-1], first[i]
				if prev.Score == cur.Score && prev.TableID >= cur.TableID {
					t.Fatalf("tie not broken by ascending TableId: %v", first)
				}
			}
		})
	}
}

// TestNativeMCEdgeShapes pins degenerate inputs both paths must agree on:
// single-column tuples, tuples containing empty values, ragged tuple
// widths, and a column whose values are all empty (the SQL renders
// `IN ()`, which matches nothing).
func TestNativeMCEdgeShapes(t *testing.T) {
	lakeTables := fig1Lake()
	native := NewEngine(storage.Build(lakeTables, 1))
	sql := NewEngine(storage.Build(lakeTables, 1))
	sql.NoNativeExec = true
	cases := []struct {
		name   string
		tuples [][]string
	}{
		{"width-1", [][]string{{"HR"}, {"IT"}}},
		{"empty-value-in-tuple", [][]string{{"HR", ""}, {"IT", "Tom Riddle"}}},
		{"ragged", [][]string{{"HR", "Firenze"}, {"IT"}}},
		{"duplicate-tuples", [][]string{{"HR", "Firenze"}, {"HR", "Firenze"}}},
		{"no-match", [][]string{{"nonexistent-a", "nonexistent-b"}}},
	}
	for _, tc := range cases {
		runBoth(t, native, sql, NewMC(tc.tuples, 10), NoRewrite, tc.name)
	}
	// All-empty column: the native path must return the SQL path's empty
	// result without scanning.
	s := NewMC([][]string{{"", "Firenze"}}, 10)
	nh, _, err := runDirect(context.Background(), native, s, NoRewrite)
	if err != nil {
		t.Fatal(err)
	}
	sh, _, err := runDirect(context.Background(), sql, s, NoRewrite)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nh, sh) {
		t.Fatalf("all-empty column: native %v vs sql %v", nh, sh)
	}
}

// TestNativeMCCachePathPreserved asserts cache-key compatibility between
// the executors: the result cache keys MC seekers by fingerprint, not by
// path, so an entry produced by the native executor is served regardless
// of the engine's current path configuration — with the original path
// preserved in the stats.
func TestNativeMCCachePathPreserved(t *testing.T) {
	lakeTables := fig1Lake()
	e := NewEngine(storage.Build(lakeTables, 1))
	e.SetResultCache(16)
	s := NewMC([][]string{{"HR", "Firenze"}}, 10)
	first, st1, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Path != PathNative || st1.CacheHit {
		t.Fatalf("first run: path=%q cacheHit=%v", st1.Path, st1.CacheHit)
	}
	// Force the SQL fallback: the cached native entry must still serve.
	e.NoNativeExec = true
	again, st2, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if st2.Path != PathNative {
		t.Fatalf("cached path = %q, want %q", st2.Path, PathNative)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("cached hits differ: %v vs %v", again, first)
	}
}

// TestNativeMCCanceledContext asserts the MC fast path honors
// cancellation.
func TestNativeMCCanceledContext(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "mccancel", NumTables: 6, ColsPerTable: 3, RowsPerTable: 20,
		VocabSize: 60, Seed: 31,
	})
	native, _ := buildNativeTestEngines(4, lake)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tuples, _ := lake.QueryTuples(3, 2)
	s := NewMC(tuples, 5)
	if _, _, err := runDirect(ctx, native, s, NoRewrite); err == nil {
		t.Fatal("expected cancellation error from native MC path")
	}
}

// TestNativeMCPlanExplainPath runs an optimized plan containing an MC node
// on both engines and checks the explain attribution: the MC node must
// report path=native on the fast-path engine and path=sql on the fallback.
func TestNativeMCPlanExplainPath(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "mcplan", NumTables: 12, ColsPerTable: 3, RowsPerTable: 25,
		VocabSize: 100, Seed: 37,
	})
	native, sql := buildNativeTestEngines(4, lake)
	tuples, _ := lake.QueryTuples(3, 2)
	p := NewPlan()
	p.MustAddSeeker("mc", NewMC(tuples, 8))
	p.MustAddSeeker("kw", NewKW(lake.QueryColumn(8), 8))
	p.MustAddCombiner("out", NewUnion(8), "mc", "kw")

	opts := RunOptions{Optimize: true, Explain: true}
	nres, err := native.Run(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sql.Run(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := range nres.NodeHits {
		if !reflect.DeepEqual(nres.NodeHits[id], sres.NodeHits[id]) {
			t.Fatalf("node %q differs: %v vs %v", id, nres.NodeHits[id], sres.NodeHits[id])
		}
	}
	if nres.PathByNode["mc"] != PathNative {
		t.Fatalf("native engine: PathByNode[mc] = %q", nres.PathByNode["mc"])
	}
	if sres.PathByNode["mc"] != PathSQL {
		t.Fatalf("sql engine: PathByNode[mc] = %q", sres.PathByNode["mc"])
	}
}
