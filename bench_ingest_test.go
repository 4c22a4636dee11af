package blend

// Bulk-ingestion benchmarks: the batched, shard-parallel write path
// (Discovery.AddTables) against the sequential AddTable loop it replaces,
// plus the end-to-end CSV pipeline. Developer tools: compare Sequential
// and Batch by hand with -benchmem.

import (
	"context"
	"sync"
	"testing"
	"time"

	"blend/internal/datalake"
)

// benchIngestShards partitions the target index; tables hash across the
// shards, so batch commits parallelize up to min(GOMAXPROCS, shards).
const benchIngestShards = 8

var benchIngest struct {
	once sync.Once
	seed []*Table
	add  []*Table
}

func benchIngestSetup(b *testing.B) {
	b.Helper()
	benchIngest.once.Do(func() {
		benchIngest.seed = datalake.GenJoinLake(datalake.JoinLakeConfig{
			Name: "ingest-seed", NumTables: 8, ColsPerTable: 4, RowsPerTable: 60,
			VocabSize: 4000, Seed: 91,
		}).Tables
		benchIngest.add = datalake.GenJoinLake(datalake.JoinLakeConfig{
			Name: "ingest-add", NumTables: 64, ColsPerTable: 4, RowsPerTable: 60,
			VocabSize: 4000, Seed: 92,
		}).Tables
	})
}

// benchIngestTarget builds a fresh seeded index outside the timer, so each
// iteration measures only the ingest of the 64-table batch.
func benchIngestTarget(b *testing.B) *Discovery {
	b.Helper()
	b.StopTimer()
	d := IndexTables(ColumnStore, benchIngest.seed, WithShards(benchIngestShards))
	b.StartTimer()
	return d
}

// BenchmarkBulkIngestSequential is the pre-batching baseline: one engine
// write-lock acquisition, generation bump, and cache purge per table, and
// strictly serial index appends.
func BenchmarkBulkIngestSequential(b *testing.B) {
	benchIngestSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := benchIngestTarget(b)
		for _, t := range benchIngest.add {
			if err := d.AddTable(t); err != nil {
				b.Fatal(err)
			}
		}
		if d.NumTables() != len(benchIngest.seed)+len(benchIngest.add) {
			b.Fatal("sequential ingest lost tables")
		}
	}
}

// BenchmarkBulkIngestBatch is the bulk path: the whole 64-table batch
// commits as one maintenance operation with per-shard inserts running
// concurrently.
func BenchmarkBulkIngestBatch(b *testing.B) {
	benchIngestSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := benchIngestTarget(b)
		ids, err := d.AddTables(context.Background(), benchIngest.add)
		if err != nil {
			b.Fatal(err)
		}
		if len(ids) != len(benchIngest.add) {
			b.Fatal("batch ingest lost tables")
		}
	}
}

// BenchmarkBulkIngestCSVDir measures the full pipeline — directory walk,
// parallel CSV parse, batched commits — over a lake written to disk once.
func BenchmarkBulkIngestCSVDir(b *testing.B) {
	benchIngestSetup(b)
	dir := b.TempDir()
	for _, t := range benchIngest.add {
		if err := t.WriteCSVFile(dir + "/" + t.Name + ".csv"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := benchIngestTarget(b)
		report, err := d.IngestCSVDir(context.Background(), dir)
		if err != nil {
			b.Fatal(err)
		}
		if report.TablesAdded != len(benchIngest.add) {
			b.Fatalf("csv ingest added %d tables, want %d", report.TablesAdded, len(benchIngest.add))
		}
	}
}

// Read-under-ingest pairing: BenchmarkReadQuiescent measures seek latency
// on an idle index, BenchmarkConcurrentReadDuringIngest the same seeks
// while a writer continuously publishes generations (AddTables +
// RemoveTable per cycle). A ratio near 1.0 between the two means
// snapshot-pinned reads do not stall behind the write path.

// benchReadQuery derives a stable seek input from the seed lake.
func benchReadQuery() []string {
	t := benchIngest.seed[0]
	q := make([]string, 0, 8)
	for r := 0; r < t.NumRows() && len(q) < 8; r++ {
		q = append(q, t.Cell(r, 0))
	}
	return q
}

func BenchmarkReadQuiescent(b *testing.B) {
	benchIngestSetup(b)
	d := IndexTables(ColumnStore, benchIngest.seed, WithShards(benchIngestShards))
	q := benchReadQuery()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := d.Seek(ctx, SC(q, 10)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkConcurrentReadDuringIngest(b *testing.B) {
	benchIngestSetup(b)
	d := IndexTables(ColumnStore, benchIngest.seed, WithShards(benchIngestShards))
	q := benchReadQuery()
	ctx := context.Background()

	// Writer: one add + one remove per cycle keeps the lake size stable
	// while generations churn for the whole measurement window. The cycle
	// is paced so the benchmark measures reader stall under a steady
	// ingest rate, not raw CPU/GC contention from an unthrottled loop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := benchIngest.add
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t := src[i%len(src)].Clone()
			t.Name = "churn"
			ids, err := d.AddTables(ctx, []*Table{t})
			if err != nil {
				b.Error(err)
				return
			}
			if err := d.RemoveTable(ids[0]); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := d.Seek(ctx, SC(q, 10)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}
