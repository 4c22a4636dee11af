package experiments

import (
	"context"
	"time"

	"blend"
	"blend/internal/baselines/starmie"
	"blend/internal/datalake"
	"blend/internal/metrics"
)

// unionBenchmarks builds the four union-search lakes of §VIII-F in the
// shape of SANTOS, SANTOS Large, TUS, and TUS Large. TUS-style lakes have
// many unionable tables per group, which caps achievable recall at small k
// exactly as the paper observes.
func unionBenchmarks(scale Scale) []*datalake.UnionBenchmark {
	f := scale.factor()
	return []*datalake.UnionBenchmark{
		datalake.GenUnionBenchmark(datalake.UnionConfig{
			Name: "SANTOS", NumGroups: 5, TablesPerGroup: 4 * f, RowsPerTable: 40,
			ColsPerTable: 4, DomainSize: 120, Queries: 6, Seed: 71,
		}),
		datalake.GenUnionBenchmark(datalake.UnionConfig{
			Name: "SANTOS Large", NumGroups: 8, TablesPerGroup: 6 * f, RowsPerTable: 40,
			ColsPerTable: 4, DomainSize: 150, Queries: 6, Seed: 72,
		}),
		datalake.GenUnionBenchmark(datalake.UnionConfig{
			Name: "TUS", NumGroups: 3, TablesPerGroup: 20 * f, RowsPerTable: 30,
			ColsPerTable: 4, DomainSize: 100, Queries: 6, Seed: 73,
		}),
		datalake.GenUnionBenchmark(datalake.UnionConfig{
			Name: "TUS Large", NumGroups: 4, TablesPerGroup: 30 * f, RowsPerTable: 30,
			ColsPerTable: 4, DomainSize: 120, Queries: 6, Seed: 74,
		}),
	}
}

// RunUnionQuality regenerates Table VI: union-search quality (P@k, recall,
// MAP@k) of BLEND's union plan versus Starmie on the SANTOS/TUS-style
// benchmarks, at k = 10 and 20 (plus 50 and 100 for the TUS-style lakes,
// as in the paper). SANTOS Large is runtime-only in the paper (no ground
// truth) and is therefore skipped here too.
func RunUnionQuality(ctx context.Context, scale Scale) *Report {
	r := &Report{ID: "unionquality", Title: "Table VI: union search quality vs Starmie"}
	r.Printf("%-14s %4s | %8s %8s %8s | %8s %8s %8s",
		"Lake", "k", "P BLEND", "R BLEND", "MAP BLD", "P Starm", "R Starm", "MAP Starm")
	for _, bench := range unionBenchmarks(scale) {
		if bench.Config.Name == "SANTOS Large" {
			continue
		}
		d := blend.IndexTables(blend.ColumnStore, bench.Tables)
		st := starmie.Build(bench.Tables)
		ks := []int{10, 20}
		if bench.Config.Name == "TUS" || bench.Config.Name == "TUS Large" {
			ks = []int{10, 20, 50, 100}
		}
		maxK := ks[len(ks)-1]
		var bRuns, sRuns []metrics.Run
		for _, q := range bench.Queries {
			plan := blend.UnionSearchPlan(q.Query, 10*maxK, maxK)
			res, err := d.Run(ctx, plan)
			if err != nil {
				panic(err)
			}
			bRuns = append(bRuns, metrics.Run{Retrieved: res.Tables, Relevant: q.Relevant})
			var sNames []string
			for _, h := range st.Search(q.Query, maxK) {
				sNames = append(sNames, st.TableName(h.TableID))
			}
			sRuns = append(sRuns, metrics.Run{Retrieved: sNames, Relevant: q.Relevant})
		}
		for _, k := range ks {
			r.Printf("%-14s %4d | %7.1f%% %7.1f%% %7.1f%% | %7.1f%% %7.1f%% %7.1f%%",
				bench.Config.Name, k,
				100*metrics.MeanPrecisionAtK(bRuns, k), 100*metrics.MeanRecallAtK(bRuns, k),
				100*metrics.MeanAveragePrecisionAtK(bRuns, k),
				100*metrics.MeanPrecisionAtK(sRuns, k), 100*metrics.MeanRecallAtK(sRuns, k),
				100*metrics.MeanAveragePrecisionAtK(sRuns, k))
		}
	}
	return r
}

// RunUnionRuntime regenerates Fig. 7: union-search runtime of Starmie and
// BLEND (column layout) on the four benchmarks. The paper's BLEND(Row)
// series is not reproduced: the index has only the column layout.
func RunUnionRuntime(ctx context.Context, scale Scale) *Report {
	r := &Report{ID: "union_runtime", Title: "Fig. 7: union search runtime vs Starmie"}
	r.Printf("%-14s | %12s %12s", "Lake", "STARMIE", "BLEND(Col)")
	for _, bench := range unionBenchmarks(scale) {
		dCol := blend.IndexTables(blend.ColumnStore, bench.Tables)
		st := starmie.Build(bench.Tables)
		var tS, tCol time.Duration
		for _, q := range bench.Queries {
			start := time.Now()
			st.Search(q.Query, 10)
			tS += time.Since(start)

			plan := blend.UnionSearchPlan(q.Query, 100, 10)
			start = time.Now()
			if _, err := dCol.Run(ctx, plan); err != nil {
				panic(err)
			}
			tCol += time.Since(start)
		}
		n := time.Duration(len(bench.Queries))
		r.Printf("%-14s | %12s %12s",
			bench.Config.Name, ms(tS/n), ms(tCol/n))
	}
	return r
}
