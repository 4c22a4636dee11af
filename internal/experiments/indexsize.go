package experiments

import (
	"context"

	"blend/internal/baselines/dataxformer"
	"blend/internal/baselines/josie"
	"blend/internal/baselines/mate"
	"blend/internal/baselines/qcrsketch"
	"blend/internal/baselines/starmie"
	"blend/internal/datalake"
	"blend/internal/storage"
)

// RunIndexSize regenerates Table VIII: the storage footprint of BLEND's
// unified index versus the sum of the state-of-the-art indexes it replaces
// (JOSIE posting lists, MATE's XASH postings, the QCR pair sketches, and
// Starmie's vectors + HNSW graph) on each Table II lake stand-in. The
// paper reports BLEND needing 57% less storage on average; the unified
// layout wins because locations, super keys, and quadrant bits share one
// dictionary-encoded relation instead of four redundant structures.
func RunIndexSize(_ context.Context, scale Scale) *Report {
	r := &Report{ID: "indexsize", Title: "Table VIII: index storage"}
	r.Printf("%-30s %14s %14s %8s", "Lake", "BLEND", "Σ S.O.T.A.", "ratio")
	var sumB, sumS int64
	for _, spec := range datalake.Registry() {
		cfg := spec.Config
		cfg.NumTables *= scale.factor()
		lake := datalake.GenJoinLake(cfg)
		blendSize := storage.Build(lake.Tables, 1).SizeBytes()
		sota := dataxformer.Build(lake.Tables).SizeBytes() +
			josie.Build(lake.Tables).SizeBytes() +
			mate.Build(lake.Tables).SizeBytes() +
			qcrsketch.Build(lake.Tables, 256).SizeBytes() +
			starmie.Build(lake.Tables).SizeBytes()
		sumB += blendSize
		sumS += sota
		r.Printf("%-30s %14d %14d %7.2fx", spec.PaperName, blendSize, sota,
			float64(sota)/float64(blendSize))
	}
	r.Printf("%-30s %14d %14d %7.2fx", "TOTAL", sumB, sumS, float64(sumS)/float64(sumB))
	r.Printf("BLEND saves %.0f%% storage versus the combined state-of-the-art indexes.",
		100*(1-float64(sumB)/float64(sumS)))
	return r
}
