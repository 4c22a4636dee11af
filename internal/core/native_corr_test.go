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

// buildCorrTestEngines indexes numeric-bearing tables under one config and
// returns a native-path engine and a SQL-path engine over the same store,
// both sampling the same h.
func buildCorrTestEngines(shards, sampleH int, tables []*table.Table) (native, sql *Engine) {
	idx := storage.Build(tables, shards)
	native = NewEngine(idx)
	native.SampleH = sampleH
	sql = NewEngine(idx)
	sql.NoNativeExec = true
	sql.SampleH = sampleH
	return native, sql
}

// TestNativeCorrSQLEquivalence is the correlation fast-path property test:
// for generated correlation lakes, random (key, target) queries, random k,
// sample sizes, and optimizer rewrites, across shard counts,
// the native executor and the minisql interpreter must return identical
// top-k lists — same ids, same QCR scores (bit-identical floats), same
// order — and identical SQLRows group counts.
func TestNativeCorrSQLEquivalence(t *testing.T) {
	bench := datalake.GenCorrBenchmark(datalake.CorrConfig{
		Name: "ceq", NumTables: 14, Rows: 60, CorrelatedShare: 0.5,
		Queries: 6, Seed: 17,
	})
	rng := rand.New(rand.NewSource(31))
	sampleHs := []int{4, 16, 64, 256}
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			for _, h := range sampleHs {
				native, sql := buildCorrTestEngines(cfg.shards, h, bench.Tables)
				numTables := int32(native.Store().NumTables())
				for qi, q := range bench.Queries {
					keys := append([]string(nil), q.Keys...)
					targets := append([]float64(nil), q.Targets...)
					if n := 4 + rng.Intn(len(keys)-4); rng.Intn(2) == 0 {
						keys, targets = keys[:n], targets[:n]
					}
					if rng.Intn(2) == 0 {
						// Duplicate a key on both sides of the target mean, so
						// the value belongs to k0 AND k1 — the case where a
						// naive two-scan native plan double-counts join rows.
						keys = append(keys, keys[0], keys[0])
						targets = append(targets, -1e9, 1e9)
					}
					k := 1 + rng.Intn(10)
					rw := NoRewrite
					switch rng.Intn(3) {
					case 1:
						rw = IncludeTables(randomTableIDs(rng, numTables))
					case 2:
						rw = ExcludeTables(randomTableIDs(rng, numTables))
					}
					label := fmt.Sprintf("c h=%d q=%d k=%d rw=%d", h, qi, k, rw.mode)
					runBoth(t, native, sql, NewCorrelation(keys, targets, k), rw, label)
				}
			}
		})
	}
}

// TestNativeCorrEmptyAndDegenerate pins the edge cases: no keys yields
// nil hits on both paths, all-empty keys degenerate identically on both
// paths, and a key vocabulary absent from the lake returns the SQL path's
// empty-but-non-nil hits.
func TestNativeCorrEmptyAndDegenerate(t *testing.T) {
	bench := datalake.GenCorrBenchmark(datalake.CorrConfig{
		Name: "cdeg", NumTables: 4, Rows: 20, CorrelatedShare: 0.5,
		Queries: 1, Seed: 3,
	})
	native, sql := buildCorrTestEngines(1, 256, bench.Tables)
	ctx := context.Background()

	for _, tc := range []struct {
		name    string
		keys    []string
		targets []float64
	}{
		{"all-empty-keys", []string{"", "", ""}, []float64{1, 2, 3}},
		{"absent-vocab", []string{"no_such_a", "no_such_b"}, []float64{1, 2}},
	} {
		runBoth(t, native, sql, NewCorrelation(tc.keys, tc.targets, 5), NoRewrite, tc.name)
	}

	if hits := runBoth(t, native, sql, NewCorrelation(nil, nil, 5), NoRewrite, "no-keys"); hits != nil {
		t.Fatalf("no-keys hits = %v, want nil", hits)
	}

	// A canceled context fails the native fan-out promptly.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	q := bench.Queries[0]
	if _, _, err := runDirect(cctx, native, NewCorrelation(q.Keys, q.Targets, 5), NoRewrite); err == nil {
		t.Fatal("expected cancellation error from native correlation path")
	}
}

// TestNativeCorrEquivalenceAfterRemoveCompact extends the correlation
// differential test across the table lifecycle: both paths must agree
// after RemoveTable (tombstoned tables join nothing) and after Compact
// (renumbered id space).
func TestNativeCorrEquivalenceAfterRemoveCompact(t *testing.T) {
	bench := datalake.GenCorrBenchmark(datalake.CorrConfig{
		Name: "crm", NumTables: 12, Rows: 40, CorrelatedShare: 0.5,
		Queries: 4, Seed: 29,
	})
	rng := rand.New(rand.NewSource(77))
	for _, cfg := range nativeTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			native, sql := buildCorrTestEngines(cfg.shards, 64, bench.Tables)
			check := func(stage string) {
				for qi, q := range bench.Queries {
					k := 1 + rng.Intn(8)
					runBoth(t, native, sql, NewCorrelation(q.Keys, q.Targets, k),
						NoRewrite, fmt.Sprintf("%s q=%d", stage, qi))
				}
			}
			check("pre-remove")
			for _, e := range []*Engine{native, sql} {
				for _, tid := range []int32{1, 6} {
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
