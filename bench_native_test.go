package blend

// A/B benchmarks for the native posting-list fast path: the joinability /
// overlap workloads (SC, KW, union plans) and the multi-column candidate
// join (MC) executed on the native executor and on the SQL-interpreter
// baseline it replaced, plus the result cache under repeated serve-style
// traffic. Developer tools: run them with -benchmem and compare the
// pairs by hand.

import (
	"context"
	"sync"
	"testing"
)

var benchPath = struct {
	once        sync.Once
	colNative   *Discovery
	colSQL      *Discovery
	shardNative *Discovery
	shardSQL    *Discovery
	cached      *Discovery
	corrSQL     *Discovery
}{}

func benchPathSetup(b *testing.B) {
	b.Helper()
	benchSetup(b)
	benchPath.once.Do(func() {
		tables := benchLake.join.Tables
		benchPath.colNative = IndexTables(ColumnStore, tables)
		benchPath.colSQL = IndexTables(ColumnStore, tables, WithoutNativeExec())
		benchPath.shardNative = IndexTables(ColumnStore, tables, WithShards(4))
		benchPath.shardSQL = IndexTables(ColumnStore, tables, WithShards(4), WithoutNativeExec())
		benchPath.cached = IndexTables(ColumnStore, tables)
		benchPath.cached.SetResultCache(64)
		benchPath.corrSQL = IndexTables(ColumnStore, benchLake.corr.Tables, WithoutNativeExec())
	})
}

func benchSeekSC(b *testing.B, d *Discovery) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.queries[i%len(benchLake.queries)]
		if _, err := d.Seek(context.Background(), SC(q, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSeekKW(b *testing.B, d *Discovery) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.queries[i%len(benchLake.queries)]
		if _, err := d.Seek(context.Background(), KW(q, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// Single-column joinability: native posting-list executor vs the SQL
// interpreter over the same monolithic column store.
func BenchmarkSCSeekerNativePath(b *testing.B) {
	benchPathSetup(b)
	benchSeekSC(b, benchPath.colNative)
}
func BenchmarkSCSeekerSQLPath(b *testing.B) { benchPathSetup(b); benchSeekSC(b, benchPath.colSQL) }

// Keyword / union-compatibility overlap: same A/B.
func BenchmarkKWSeekerNativePath(b *testing.B) {
	benchPathSetup(b)
	benchSeekKW(b, benchPath.colNative)
}
func BenchmarkKWSeekerSQLPath(b *testing.B) { benchPathSetup(b); benchSeekKW(b, benchPath.colSQL) }

// The same pairing over a 4-shard store: per-shard scans + bounded-heap
// merge vs SQL over the one AllTables relation spanning every shard.
func BenchmarkSCSeekerShardedNativePath(b *testing.B) {
	benchPathSetup(b)
	benchSeekSC(b, benchPath.shardNative)
}

func BenchmarkSCSeekerShardedSQLPath(b *testing.B) {
	benchPathSetup(b)
	benchSeekSC(b, benchPath.shardSQL)
}

func benchSeekMC(b *testing.B, d *Discovery) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchLake.tuples[i%len(benchLake.tuples)]
		if _, err := d.Seek(context.Background(), MC(t, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// Multi-column joinability: the native candidate join + XASH pruning +
// exact validation pipeline vs the interpreted Listing 2 join it replaced.
func BenchmarkMCNative(b *testing.B) { benchPathSetup(b); benchSeekMC(b, benchPath.colNative) }
func BenchmarkMCSQL(b *testing.B)    { benchPathSetup(b); benchSeekMC(b, benchPath.colSQL) }

// The same MC pairing over a 4-shard store: concurrent per-shard candidate
// joins vs the Listing 2 join over the one AllTables relation.
func BenchmarkMCNativeSharded(b *testing.B) {
	benchPathSetup(b)
	benchSeekMC(b, benchPath.shardNative)
}

func BenchmarkMCSQLSharded(b *testing.B) {
	benchPathSetup(b)
	benchSeekMC(b, benchPath.shardSQL)
}

func benchSeekCorr(b *testing.B, d *Discovery) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.corr.Queries[i%len(benchLake.corr.Queries)]
		if _, err := d.Seek(context.Background(), Correlation(q.Keys, q.Targets, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// Correlation (QCR) seeking: the native two-pass posting scan — fold the
// key→quadrant map, scan each distinct key value once, heap the per-table
// agreement scores — vs the interpreted two-way IN-join + grouped
// aggregation it replaced.
func BenchmarkCorrSeekerNativePath(b *testing.B) {
	benchPathSetup(b)
	benchSeekCorr(b, benchLake.corrCol)
}

func BenchmarkCorrSeekerSQLPath(b *testing.B) {
	benchPathSetup(b)
	benchSeekCorr(b, benchPath.corrSQL)
}

// Serve-style repeated traffic with the result cache on: after the first
// rotation through the query set every Seek is a cache hit.
func BenchmarkSeekerResultCache(b *testing.B) {
	benchPathSetup(b)
	benchSeekSC(b, benchPath.cached)
}

// Union-search on both paths: the KW-seeker fan-out + Counter plan of
// Table VI, dominated by seeker execution.
func benchUnionPlan(b *testing.B, d *Discovery) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.union.Queries[i%len(benchLake.union.Queries)]
		if _, err := d.Run(context.Background(), UnionSearchPlan(q.Query, 100, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnionPlanNativePath(b *testing.B) {
	benchPathSetup(b)
	d := IndexTables(ColumnStore, benchLake.union.Tables)
	benchUnionPlan(b, d)
}

func BenchmarkUnionPlanSQLPath(b *testing.B) {
	benchPathSetup(b)
	d := IndexTables(ColumnStore, benchLake.union.Tables, WithoutNativeExec())
	benchUnionPlan(b, d)
}
