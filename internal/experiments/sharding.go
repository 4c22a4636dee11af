package experiments

import (
	"context"
	"reflect"
	"runtime"
	"time"

	"blend"
	"blend/internal/datalake"
)

// Shards is the shard count exercised by the sharding experiment; the
// blend-experiments CLI overrides it with -shards.
var Shards = 4

// RunSharding measures the production-scaling extension: the same seeker
// workload, and the same multi-seeker plan on the DAG scheduler (at
// GOMAXPROCS width, like every plan), against a monolithic index versus a
// hash-partitioned one with concurrent shard scans. It also verifies that
// the sharded results are identical to the monolithic ones — the
// invariant the shard merge is built around.
func RunSharding(ctx context.Context, scale Scale) *Report {
	r := &Report{ID: "sharding", Title: "Extension: sharded AllTables + concurrent plan scheduler"}
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "shard", NumTables: 80 * scale.factor(), ColsPerTable: 4,
		RowsPerTable: 100, VocabSize: 4000, Seed: 77,
	})
	mono := blend.IndexTables(blend.ColumnStore, lake.Tables)
	shard := blend.IndexTables(blend.ColumnStore, lake.Tables, blend.WithShards(Shards))

	queries := make([][]string, 0, 6)
	for i := 0; i < 6; i++ {
		queries = append(queries, lake.QueryColumn(40))
	}

	seekerBench := func(d *blend.Discovery) (time.Duration, []string) {
		var total time.Duration
		var names []string
		for _, q := range queries {
			start := time.Now()
			hits, err := d.Seek(ctx, blend.SC(q, 10))
			if err != nil {
				panic(err)
			}
			total += time.Since(start)
			names = append(names, d.TableNames(hits)...)
		}
		return total / time.Duration(len(queries)), names
	}

	tMono, refNames := seekerBench(mono)
	tShard, gotNames := seekerBench(shard)
	r.Printf("SC seeker avg over %d queries:", len(queries))
	r.Printf("  monolithic         %10v", tMono.Round(time.Microsecond))
	r.Printf("  %d shards           %10v   identical results: %v",
		Shards, tShard.Round(time.Microsecond), reflect.DeepEqual(refNames, gotNames))

	// A plan of four independent seekers joined by a Union: the shape the
	// DAG scheduler parallelizes fully.
	mkPlan := func() *blend.Plan {
		p := blend.NewPlan()
		p.MustAddSeeker("sc0", blend.SC(queries[0], 10))
		p.MustAddSeeker("sc1", blend.SC(queries[1], 10))
		p.MustAddSeeker("kw", blend.KW(queries[2][:8], 10))
		p.MustAddSeeker("sc3", blend.SC(queries[3], 10))
		p.MustAddCombiner("any", blend.Union(10), "sc0", "sc1", "kw", "sc3")
		return p
	}
	ref, err := mono.Run(ctx, mkPlan())
	if err != nil {
		panic(err)
	}
	res, err := shard.Run(ctx, mkPlan())
	if err != nil {
		panic(err)
	}
	r.Printf("4-seeker Union plan on the scheduler (GOMAXPROCS %d):", runtime.GOMAXPROCS(0))
	r.Printf("  monolithic         %10v", ref.Duration.Round(time.Microsecond))
	r.Printf("  %d shards           %10v   peak concurrency %d, identical results: %v",
		Shards, res.Duration.Round(time.Microsecond), res.PeakConcurrency,
		reflect.DeepEqual(res.NodeHits, ref.NodeHits))
	return r
}
