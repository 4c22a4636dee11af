package experiments

import (
	"context"
	"time"

	"blend"
	"blend/internal/baselines/josie"
	"blend/internal/datalake"
)

// RunSCRuntime regenerates Fig. 5: average single-column join-search
// runtime for BLEND (column layout) versus JOSIE across query sizes on
// WDC-, Canada-US-UK-, and Gittables-like lakes. The paper sweeps query
// sizes up to 100k on billion-row corpora; the scaled sweep keeps the
// series shape (runtime grows with query size). The paper's BLEND(Row)
// series is not reproduced: the index has only the column layout.
func RunSCRuntime(ctx context.Context, scale Scale) *Report {
	r := &Report{ID: "sc_runtime", Title: "Fig. 5: SC seeker runtime vs JOSIE"}
	lakes := []struct {
		name  string
		seed  int64
		sizes []int
	}{
		{"WDC", 51, []int{100, 1000, 10000}},
		{"Canada-US-UK", 52, []int{1000, 10000, 20000}},
		{"Gittables", 53, []int{10, 100, 1000}},
	}
	r.Printf("%-14s %8s | %14s %14s", "Lake", "|Q|", "BLEND(Column)", "JOSIE")
	for _, spec := range lakes {
		lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
			Name: spec.name, NumTables: 40 * scale.factor(), ColsPerTable: 4,
			RowsPerTable: 150, VocabSize: 25000, Seed: spec.seed,
		})
		dCol := blend.IndexTables(blend.ColumnStore, lake.Tables)
		josieIx := josie.Build(lake.Tables)
		queries := 4 * scale.factor()
		for _, size := range spec.sizes {
			var tCol, tJosie time.Duration
			for q := 0; q < queries; q++ {
				col := lake.QueryColumn(size)
				seeker := blend.SC(col, 10)
				start := time.Now()
				if _, err := dCol.Seek(ctx, seeker); err != nil {
					panic(err)
				}
				tCol += time.Since(start)
				start = time.Now()
				josieIx.SearchTables(col, 10)
				tJosie += time.Since(start)
			}
			n := time.Duration(queries)
			r.Printf("%-14s %8d | %14s %14s",
				spec.name, size, ms(tCol/n), ms(tJosie/n))
		}
	}
	return r
}
