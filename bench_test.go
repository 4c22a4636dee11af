package blend

// Benchmarks regenerating the runtime dimension of every table and figure
// in the paper's evaluation (§VIII). Each bench maps to one artifact; the
// full sweeps with formatted output live in cmd/blend-experiments, these
// provide the `go test -bench` entry points and -benchmem accounting.
//
//	Table II   BenchmarkIndexBuild (offline phase)
//	Table III  BenchmarkComplexTask*
//	Table IV   BenchmarkOptimizedPlan vs BenchmarkUnoptimizedPlan
//	Table V    BenchmarkMCSeeker vs BenchmarkMATE
//	Fig. 5     BenchmarkSCSeekerColumn/Row vs BenchmarkJosie
//	Fig. 6     BenchmarkDeepJoin (plus the SC benches above)
//	Table VI / Fig. 7  BenchmarkUnionPlan vs BenchmarkStarmie
//	Table VII  BenchmarkCorrelationSeeker vs BenchmarkQCRSketch
//	Table VIII BenchmarkIndexPersist (serialized footprint path)
//	Table IX   BenchmarkUserStudyAggregate

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"blend/internal/baselines/deepjoin"
	"blend/internal/baselines/josie"
	"blend/internal/baselines/mate"
	"blend/internal/baselines/qcrsketch"
	"blend/internal/baselines/starmie"
	"blend/internal/datalake"
	"blend/internal/userstudy"
)

// benchLake caches the shared benchmark fixtures so each bench pays setup
// once per process.
var benchLake = struct {
	once    sync.Once
	join    *datalake.JoinLake
	queries [][]string
	tuples  [][][]string
	union   *datalake.UnionBenchmark
	corr    *datalake.CorrBenchmark
	col     *Discovery
	sharded *Discovery
	josie   *josie.Index
	mate    *mate.Index
	starmie *starmie.Index
	dj      *deepjoin.Index
	sketch  *qcrsketch.Index
	corrCol *Discovery
}{}

func benchSetup(b *testing.B) {
	b.Helper()
	benchLake.once.Do(func() {
		benchLake.join = datalake.GenJoinLake(datalake.JoinLakeConfig{
			Name: "bench", NumTables: 60, ColsPerTable: 4, RowsPerTable: 80,
			VocabSize: 5000, Seed: 90,
		})
		for i := 0; i < 8; i++ {
			benchLake.queries = append(benchLake.queries, benchLake.join.QueryColumn(50))
			t, _ := benchLake.join.QueryTuples(5, 2)
			benchLake.tuples = append(benchLake.tuples, t)
		}
		benchLake.col = IndexTables(ColumnStore, benchLake.join.Tables)
		benchLake.sharded = IndexTables(ColumnStore, benchLake.join.Tables, WithShards(4))
		benchLake.josie = josie.Build(benchLake.join.Tables)
		benchLake.mate = mate.Build(benchLake.join.Tables)
		benchLake.starmie = starmie.Build(benchLake.join.Tables)
		benchLake.dj = deepjoin.Build(benchLake.join.Tables)
		benchLake.sketch = qcrsketch.Build(benchLake.join.Tables, 256)
		benchLake.union = datalake.GenUnionBenchmark(datalake.UnionConfig{
			Name: "bu", NumGroups: 4, TablesPerGroup: 8, RowsPerTable: 30,
			ColsPerTable: 3, DomainSize: 100, Queries: 4, Seed: 91,
		})
		benchLake.corr = datalake.GenCorrBenchmark(datalake.CorrConfig{
			Name: "bc", NumTables: 20, Rows: 300, CorrelatedShare: 0.4,
			Queries: 2, Seed: 92,
		})
		benchLake.corrCol = IndexTables(ColumnStore, benchLake.corr.Tables)
	})
}

// BenchmarkIndexBuild measures the offline phase (Table II / Fig. 2e):
// building the unified index over the benchmark lake.
func BenchmarkIndexBuild(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := IndexTables(ColumnStore, benchLake.join.Tables)
		if d.NumTables() == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkIndexPersist measures index serialization + reload, the path
// behind the storage numbers of Table VIII.
func BenchmarkIndexPersist(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := benchLake.col.Engine().Store().Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSCSeekerColumn / BenchmarkJosie cover Fig. 5 (and the runtime
// bar of Fig. 6).
func BenchmarkSCSeekerColumn(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.queries[i%len(benchLake.queries)]
		if _, err := benchLake.col.Seek(context.Background(), SC(q, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJosie(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.queries[i%len(benchLake.queries)]
		benchLake.josie.SearchTables(q, 10)
	}
}

// BenchmarkDeepJoin covers the semantic join baseline of Fig. 6.
func BenchmarkDeepJoin(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.queries[i%len(benchLake.queries)]
		benchLake.dj.SearchTables(q, 10)
	}
}

// BenchmarkMCSeeker / BenchmarkMATE cover Table V.
func BenchmarkMCSeeker(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchLake.tuples[i%len(benchLake.tuples)]
		if _, err := benchLake.col.Seek(context.Background(), MC(t, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMATE(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchLake.tuples[i%len(benchLake.tuples)]
		benchLake.mate.Search(t, 10)
	}
}

// BenchmarkUnionPlan / BenchmarkStarmie cover Table VI and Fig. 7.
func BenchmarkUnionPlan(b *testing.B) {
	benchSetup(b)
	d := IndexTables(ColumnStore, benchLake.union.Tables)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := benchLake.union.Queries[i%len(benchLake.union.Queries)]
		if _, err := d.Run(context.Background(), UnionSearchPlan(q.Query, 100, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStarmie(b *testing.B) {
	benchSetup(b)
	st := starmie.Build(benchLake.union.Tables)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := benchLake.union.Queries[i%len(benchLake.union.Queries)]
		st.Search(q.Query, 10)
	}
}

// BenchmarkCorrelationSeeker / BenchmarkQCRSketch cover Table VII.
func BenchmarkCorrelationSeeker(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.corr.Queries[i%len(benchLake.corr.Queries)]
		if _, err := benchLake.corrCol.Seek(context.Background(), Correlation(q.Keys, q.Targets, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQCRSketch(b *testing.B) {
	benchSetup(b)
	sk := qcrsketch.Build(benchLake.corr.Tables, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := benchLake.corr.Queries[i%len(benchLake.corr.Queries)]
		sk.Search(q.Keys, q.Targets, 10)
	}
}

// BenchmarkOptimizedPlan / BenchmarkUnoptimizedPlan cover Table IV and the
// BLEND vs B-NO columns of Table III: a mixed two-seeker intersection plan
// with and without the optimizer.
func BenchmarkOptimizedPlan(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchComplexPlan(i)
		if _, err := benchLake.col.Run(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnoptimizedPlan(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := benchComplexPlan(i)
		if _, err := benchLake.col.Run(context.Background(), p, WithoutOptimizer()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchComplexPlan(i int) *Plan {
	p := NewPlan()
	p.MustAddSeeker("kw", KW(benchLake.queries[i%len(benchLake.queries)][:5], 10))
	p.MustAddSeeker("mc", MC(benchLake.tuples[i%len(benchLake.tuples)], 10))
	p.MustAddCombiner("both", Intersect(10), "kw", "mc")
	return p
}

// BenchmarkComplexTaskNegative covers the first Table III column.
func BenchmarkComplexTaskNegative(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pos := benchLake.tuples[i%len(benchLake.tuples)]
		neg := benchLake.tuples[(i+1)%len(benchLake.tuples)]
		if _, err := benchLake.col.Run(context.Background(), NegativeExamplesPlan(pos, neg, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplexTaskImputation covers the second Table III column.
func BenchmarkComplexTaskImputation(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex := benchLake.tuples[i%len(benchLake.tuples)]
		q := benchLake.queries[i%len(benchLake.queries)][:12]
		if _, err := benchLake.col.Run(context.Background(), ImputationPlan(ex, q, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplexTaskMultiObjective covers the last Table III column.
func BenchmarkComplexTaskMultiObjective(b *testing.B) {
	benchSetup(b)
	src := benchLake.join.Tables[0]
	query := NewTable("q")
	query.Columns = append(query.Columns, src.Columns...)
	for r := 0; r < 8 && r < src.NumRows(); r++ {
		query.Rows = append(query.Rows, src.Rows[r])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kw := benchLake.queries[i%len(benchLake.queries)][:3]
		p, err := MultiObjectivePlan(kw, query, "col0", "col3", 10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := benchLake.col.Run(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUserStudyAggregate covers Table IX's aggregation path.
func BenchmarkUserStudyAggregate(b *testing.B) {
	rs := userstudy.Responses()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if userstudy.Aggregate(rs) == nil {
			b.Fatal("nil summary")
		}
	}
}

// BenchmarkSCSeekerSharded contrasts BenchmarkSCSeekerColumn with the same
// workload on a 4-shard index scanned concurrently.
func BenchmarkSCSeekerSharded(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchLake.queries[i%len(benchLake.queries)]
		if _, err := benchLake.sharded.Seek(context.Background(), SC(q, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCSeekerSharded is the sharded counterpart of BenchmarkMCSeeker.
func BenchmarkMCSeekerSharded(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchLake.tuples[i%len(benchLake.tuples)]
		if _, err := benchLake.sharded.Seek(context.Background(), MC(t, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuildSharded measures the offline phase into 4 shards.
func BenchmarkIndexBuildSharded(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := IndexTables(ColumnStore, benchLake.join.Tables, WithShards(4))
		if d.NumTables() == 0 {
			b.Fatal("empty index")
		}
	}
}

// benchFanOutPlan builds a 4-independent-seeker Union plan, the shape the
// DAG scheduler parallelizes fully.
func benchFanOutPlan(i int) *Plan {
	p := NewPlan()
	for j := 0; j < 4; j++ {
		q := benchLake.queries[(i+j)%len(benchLake.queries)]
		p.MustAddSeeker(seekerName(j), SC(q, 10))
	}
	p.MustAddCombiner("any", Union(10), seekerName(0), seekerName(1), seekerName(2), seekerName(3))
	return p
}

func seekerName(j int) string { return string(rune('a' + j)) }

// BenchmarkPlanScheduler measures a four-seeker Union plan on the sharded
// index; the scheduler runs it GOMAXPROCS-wide (set -cpu to vary it).
func BenchmarkPlanScheduler(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := benchLake.sharded.Run(context.Background(), benchFanOutPlan(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexPersistSharded measures v2 serialization.
func BenchmarkIndexPersistSharded(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := benchLake.sharded.Engine().Store().Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
