package experiments

import (
	"context"
	"strconv"

	"blend/internal/datalake"
	"blend/internal/storage"
)

// RunLakes regenerates Table II: for each corpus the paper lists, the
// scaled synthetic stand-in is generated and its actual shape and index
// footprint are reported next to the paper's sizes.
func RunLakes(_ context.Context, scale Scale) *Report {
	r := &Report{ID: "lakes", Title: "Table II: data lakes used in the experiments"}
	r.Printf("%-30s %12s %12s %12s | %8s %8s %10s %12s",
		"Lake", "paper tables", "paper cols", "paper rows",
		"tables", "cols", "rows", "index bytes")
	for _, spec := range datalake.Registry() {
		cfg := spec.Config
		cfg.NumTables *= scale.factor()
		lake := datalake.GenJoinLake(cfg)
		tables, cols, rows := len(lake.Tables), 0, 0
		for _, t := range lake.Tables {
			cols += t.NumCols()
			rows += t.NumRows()
		}
		st := storage.Build(lake.Tables, 1)
		r.Printf("%-30s %12s %12s %12s | %8d %8d %10d %12d",
			spec.PaperName,
			humanCount(spec.PaperTables), humanCount(spec.PaperColumns), humanCount(spec.PaperRows),
			tables, cols, rows, st.SizeBytes())
	}
	return r
}

// humanCount prints a paper-reported size, with "-" for unknown.
func humanCount(n int64) string {
	if n == 0 {
		return "-"
	}
	switch {
	case n >= 1_000_000_000:
		return strconv.FormatFloat(float64(n)/1e9, 'g', 3, 64) + "B"
	case n >= 1_000_000:
		return strconv.FormatFloat(float64(n)/1e6, 'g', 3, 64) + "M"
	case n >= 1_000:
		return strconv.FormatFloat(float64(n)/1e3, 'g', 3, 64) + "K"
	default:
		return strconv.FormatInt(n, 10)
	}
}
