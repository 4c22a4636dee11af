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

// nativeTestConfigs enumerates the shard counts both execution paths must
// agree across.
var nativeTestConfigs = []struct {
	name   string
	shards int
}{
	{"column", 1},
	{"column-sharded", 4},
}

// buildNativeTestEngines indexes the lake under one config and returns a
// native-path engine and a SQL-path engine over the same store.
func buildNativeTestEngines(shards int, lake *datalake.JoinLake) (native, sql *Engine) {
	idx := storage.Build(lake.Tables, shards)
	native = NewEngine(idx)
	sql = NewEngine(idx)
	sql.NoNativeExec = true
	return native, sql
}

// runBoth executes one seeker with the same rewrite on both engines and
// asserts byte-identical results, equal RunStats.SQLRows (the native count
// must equal the row count of the one-relation SQL) and correct path
// attribution.
func runBoth(t *testing.T, native, sql *Engine, s Seeker, rw Rewrite, label string) Hits {
	t.Helper()
	ctx := context.Background()
	nh, nst, err := runDirect(ctx, native, s, rw)
	if err != nil {
		t.Fatalf("%s: native run: %v", label, err)
	}
	sh, sst, err := runDirect(ctx, sql, s, rw)
	if err != nil {
		t.Fatalf("%s: sql run: %v", label, err)
	}
	if len(nh) != 0 || len(sh) != 0 { // empty inputs short-circuit before path selection
		if nst.Path != PathNative {
			t.Fatalf("%s: native engine reported path %q", label, nst.Path)
		}
		if sst.Path != PathSQL {
			t.Fatalf("%s: sql engine reported path %q", label, sst.Path)
		}
	}
	if !reflect.DeepEqual(nh, sh) {
		t.Fatalf("%s: paths disagree\n native: %v\n    sql: %v", label, nh, sh)
	}
	if nst.SQLRows != sst.SQLRows {
		t.Fatalf("%s: SQLRows %d (native) vs %d (sql)", label, nst.SQLRows, sst.SQLRows)
	}
	return nh
}

// TestNativeSQLEquivalence is the fast-path property test: for random
// lakes, random query columns, random k, with and without MinOverlap
// thresholds and optimizer rewrites, across shard counts, the
// native posting-list executor and the minisql interpreter must return
// identical top-k lists — same ids, same scores, same order.
func TestNativeSQLEquivalence(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "eq", NumTables: 24, ColsPerTable: 3, RowsPerTable: 40,
		VocabSize: 300, Seed: 7,
	})
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			native, sql := buildNativeTestEngines(cfg.shards, lake)
			numTables := int32(native.Store().NumTables())
			for trial := 0; trial < 25; trial++ {
				values := lake.QueryColumn(1 + rng.Intn(40))
				k := 1 + rng.Intn(15)
				minOverlap := 0
				if rng.Intn(3) == 0 {
					minOverlap = 1 + rng.Intn(4)
				}
				rw := NoRewrite
				switch rng.Intn(3) {
				case 1:
					ids := randomTableIDs(rng, numTables)
					rw = IncludeTables(ids)
				case 2:
					ids := randomTableIDs(rng, numTables)
					rw = ExcludeTables(ids)
				}
				label := fmt.Sprintf("trial %d (|q|=%d k=%d min=%d rw=%d)",
					trial, len(values), k, minOverlap, rw.mode)

				sc := &SCSeeker{Values: values, K: k, MinOverlap: minOverlap}
				runBoth(t, native, sql, sc, rw, "sc "+label)
				kw := &KWSeeker{Keywords: values, K: k, MinOverlap: minOverlap}
				runBoth(t, native, sql, kw, rw, "kw "+label)
			}
		})
	}
}

func randomTableIDs(rng *rand.Rand, numTables int32) []int32 {
	n := 1 + rng.Intn(8)
	ids := make([]int32, 0, n)
	seen := make(map[int32]struct{}, n)
	for len(ids) < n {
		id := int32(rng.Intn(int(numTables)))
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	return ids
}

// TestNativeDeterministicTies asserts the tie-break contract of both
// paths: equal overlap scores order by ascending TableId, so repeated runs
// return identical lists. The lake holds identical tables, so every score
// ties.
func TestNativeDeterministicTies(t *testing.T) {
	lakeTables := fig1Lake()
	// Clone T2 under other names so several tables tie exactly.
	for i := 0; i < 3; i++ {
		c := lakeTables[1].Clone()
		c.Name = fmt.Sprintf("Tie%d", i)
		lakeTables = append(lakeTables, c)
	}
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			idx := storage.Build(lakeTables, cfg.shards)
			native := NewEngine(idx)
			sql := NewEngine(idx)
			sql.NoNativeExec = true
			s := NewKW([]string{"IT", "Marketing", "HR"}, 4)
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

// TestNativePlanEquivalence runs a full optimized plan — execution groups,
// Difference rewrites, combiners — on both paths and compares every node's
// result, and checks PathByNode explain attribution.
func TestNativePlanEquivalence(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "plan", NumTables: 16, ColsPerTable: 3, RowsPerTable: 30,
		VocabSize: 120, Seed: 11,
	})
	native, sql := buildNativeTestEngines(4, lake)
	p := NewPlan()
	p.MustAddSeeker("a", NewSC(lake.QueryColumn(12), 8))
	p.MustAddSeeker("b", NewKW(lake.QueryColumn(10), 8))
	p.MustAddSeeker("c", NewKW(lake.QueryColumn(6), 8))
	p.MustAddCombiner("both", NewIntersect(8), "a", "b")
	p.MustAddCombiner("out", NewDifference(8), "both", "c")

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
	for _, id := range []string{"a", "b", "c"} {
		if nres.PathByNode[id] != PathNative {
			t.Fatalf("native engine: PathByNode[%s] = %q", id, nres.PathByNode[id])
		}
		if sres.PathByNode[id] != PathSQL {
			t.Fatalf("sql engine: PathByNode[%s] = %q", id, sres.PathByNode[id])
		}
	}
}

// TestNativeAddTableVisibility asserts the native path sees incrementally
// appended tables exactly like the SQL path (the per-shard cursors read
// the live store).
func TestNativeAddTableVisibility(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "addt", NumTables: 8, ColsPerTable: 3, RowsPerTable: 20,
		VocabSize: 80, Seed: 3,
	})
	extra := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "addx", NumTables: 2, ColsPerTable: 3, RowsPerTable: 20,
		VocabSize: 80, Seed: 4,
	})
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			native, sql := buildNativeTestEngines(cfg.shards, lake)
			for i := range extra.Tables {
				for _, e := range []*Engine{native, sql} {
					if _, err := e.AddTables(extra.Tables[i : i+1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			q := extra.Tables[0].DistinctColumnValues(0)
			if len(q) > 15 {
				q = q[:15]
			}
			runBoth(t, native, sql, NewSC(q, 10), NoRewrite, "post-AddTable sc")
			runBoth(t, native, sql, NewKW(q, 10), NoRewrite, "post-AddTable kw")
		})
	}
}

// TestNativeCanceledContext asserts the fast path honors cancellation.
func TestNativeCanceledContext(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "cancel", NumTables: 6, ColsPerTable: 3, RowsPerTable: 20,
		VocabSize: 60, Seed: 5,
	})
	native, _ := buildNativeTestEngines(4, lake)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSC(lake.QueryColumn(10), 5)
	if _, _, err := runDirect(ctx, native, s, NoRewrite); err == nil {
		t.Fatal("expected cancellation error from native path")
	}
}
