package experiments

import (
	"context"
	"time"

	"blend"
	"blend/internal/baselines/josie"
	"blend/internal/baselines/mate"
	"blend/internal/baselines/qcrsketch"
	"blend/internal/baselines/starmie"
	"blend/internal/datalake"
	"blend/internal/storage"
	"blend/internal/table"
)

// Lines-of-code accounting for Table III. The BLEND numbers count the plan
// definition statements a user writes (the calls in blend/tasks.go bodies);
// the baseline numbers count the federated implementations below
// (baselineNegative, baselineImputation, baselineFeature, baselineMulti)
// including the alignment glue, mirroring how the paper counts ad-hoc
// pipeline code.
const (
	locBlendNegative   = 5
	locBlendImputation = 5
	locBlendFeature    = 7
	locBlendMulti      = 8

	locBaseNegative   = 38
	locBaseImputation = 33
	locBaseFeature    = 41
	locBaseMulti      = 46
)

// taskResult aggregates one Table III column triple. The timings go into
// the report; the exact work counts of the optimized (blendWork) and
// unoptimized (bnoWork) runs are what the rewrite claim is checked on,
// because they do not depend on the machine.
type taskResult struct {
	blend, bno, base   time.Duration
	blendWork, bnoWork planWork
	locBlend, locBase  int
	systems            int
	indexes            string
}

// planWork is the exact work of plan runs, read off their seeker stats:
// the rows the seekers' (actual or equivalent) SQL produced, and how many
// seekers ran with an optimizer rewrite.
type planWork struct {
	rows, rewritten int
}

func (w *planWork) add(res *blend.Result) {
	for _, st := range res.Stats {
		w.rows += st.SQLRows
		if st.Rewritten {
			w.rewritten++
		}
	}
}

// runBoth runs plan with and without the optimizer (BLEND and B-NO),
// adding both timings and both work counts to res.
func (res *taskResult) runBoth(ctx context.Context, d *blend.Discovery, plan *blend.Plan) {
	var opt, bno *blend.Result
	res.blend += timeIt(func() { opt = mustRun(d.Run(ctx, plan)) })
	res.bno += timeIt(func() { bno = mustRun(d.Run(ctx, plan, blend.WithoutOptimizer())) })
	res.blendWork.add(opt)
	res.bnoWork.add(bno)
}

// RunComplexTasks regenerates Table III: the four complex discovery tasks,
// each implemented once with BLEND (optimized and unoptimized) and once as
// a federation of the reimplemented state-of-the-art systems.
func RunComplexTasks(ctx context.Context, scale Scale) *Report {
	r := &Report{ID: "complex", Title: "Table III: complex discovery tasks"}
	queries := 4 * scale.factor()

	results := []struct {
		name string
		res  taskResult
	}{
		{"With Negative Examples", runNegativeTask(ctx, scale, queries)},
		{"Data Imputation", runImputationTask(ctx, scale, queries)},
		{"Feature Discovery", runFeatureTask(ctx, scale, max(2, queries/2))},
		{"Multi-Objective Discovery", runMultiTask(ctx, scale, max(2, queries/2))},
	}
	r.Printf("%-26s %10s %10s %10s | %5s %5s | %8s | %8s",
		"Task", "BLEND", "B-NO", "Baseline", "LOC-B", "LOC-b", "#Systems", "#Indexes")
	for _, t := range results {
		r.Printf("%-26s %10s %10s %10s | %5d %5d | %d vs %d | %s",
			t.name, ms(t.res.blend), ms(t.res.bno), ms(t.res.base),
			t.res.locBlend, t.res.locBase, 1, t.res.systems, t.res.indexes)
	}
	return r
}

// negLake builds the lake shared by the negative-example and imputation
// tasks: a Gittables-like join lake.
func negLake(scale Scale, seed int64) *datalake.JoinLake {
	return datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "complex", NumTables: 60 * scale.factor(), ColsPerTable: 4,
		RowsPerTable: 60, VocabSize: 4000, Seed: seed,
	})
}

func runNegativeTask(ctx context.Context, scale Scale, queries int) taskResult {
	lake := negLake(scale, 21)
	d := blend.IndexTables(blend.ColumnStore, lake.Tables)
	mateIx := mate.Build(lake.Tables)
	// The baseline's "database": candidate tables must be loaded out of it
	// into the application before row-by-row validation — the federation
	// cost the paper identifies as the bottleneck (§VIII-B2).
	db := storage.Build(lake.Tables, 1)

	res := taskResult{
		locBlend: locBlendNegative, locBase: locBaseNegative,
		systems: 1, indexes: "Single vs Multi",
	}
	for q := 0; q < queries; q++ {
		pos, _ := lake.QueryTuples(4, 2)
		neg, _ := lake.QueryTuples(3, 2)
		if len(pos) == 0 || len(neg) == 0 {
			continue
		}
		plan := blend.NegativeExamplesPlan(pos, neg, 10)
		res.runBoth(ctx, d, plan)
		res.base += timeIt(func() { baselineNegative(mateIx, db, pos, neg, 10) })
	}
	return res
}

// baselineNegative is the federated implementation of §VIII-B2: MATE
// filters tables by the positive examples, then application code loads
// every result table from the database and validates it row by row
// against the negative examples.
func baselineNegative(ix *mate.Index, db *storage.ShardedStore, pos, neg [][]string, k int) []string {
	hits, _ := ix.Search(pos, -1)
	var out []string
	for _, h := range hits {
		t := db.ReconstructTable(h.TableID)
		contaminated := false
		// Row-by-row validation — the bottleneck the paper reports.
		for _, row := range t.Rows {
			cells := make(map[string]struct{}, len(row))
			for _, c := range row {
				cells[c] = struct{}{}
			}
			for _, nt := range neg {
				all := true
				for _, v := range nt {
					if _, ok := cells[v]; !ok {
						all = false
						break
					}
				}
				if all {
					contaminated = true
					break
				}
			}
			if contaminated {
				break
			}
		}
		if !contaminated {
			out = append(out, t.Name)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func runImputationTask(ctx context.Context, scale Scale, queries int) taskResult {
	lake := negLake(scale, 22)
	d := blend.IndexTables(blend.ColumnStore, lake.Tables)
	mateIx := mate.Build(lake.Tables)
	josieIx := josie.Build(lake.Tables)
	db := storage.Build(lake.Tables, 1)

	res := taskResult{
		locBlend: locBlendImputation, locBase: locBaseImputation,
		systems: 2, indexes: "Single vs Multi",
	}
	for q := 0; q < queries; q++ {
		examples, _ := lake.QueryTuples(5, 2)
		if len(examples) == 0 {
			continue
		}
		queriesCol := lake.QueryColumn(12)
		plan := blend.ImputationPlan(examples, queriesCol, 10)
		res.runBoth(ctx, d, plan)
		res.base += timeIt(func() { baselineImputation(mateIx, josieIx, db, examples, queriesCol, 10) })
	}
	return res
}

// baselineImputation is the federated implementation of §VIII-B3: MATE for
// complete rows, JOSIE for partial rows, intersected in application code;
// the intersected tables are then loaded from the database so the missing
// values can be inferred from them.
func baselineImputation(mi *mate.Index, ji *josie.Index, db *storage.ShardedStore, examples [][]string, queries []string, k int) []string {
	mateHits, _ := mi.Search(examples, -1)
	josieHits := ji.SearchTables(queries, 4*k)
	inJosie := make(map[int32]struct{}, len(josieHits))
	for _, h := range josieHits {
		inJosie[h.Column.TableID] = struct{}{}
	}
	var out []string
	for _, h := range mateHits {
		if _, ok := inJosie[h.TableID]; ok {
			// Load the table to application memory for value inference.
			_ = db.ReconstructTable(h.TableID)
			out = append(out, mi.TableName(h.TableID))
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func runFeatureTask(ctx context.Context, scale Scale, queries int) taskResult {
	bench := datalake.GenCorrBenchmark(datalake.CorrConfig{
		Name: "feat", NumTables: 16 * scale.factor(), Rows: 80,
		CorrelatedShare: 0.3, Queries: queries, Seed: 23,
	})
	d := blend.IndexTables(blend.ColumnStore, bench.Tables)
	sketchIx := qcrsketch.Build(bench.Tables, 256)
	mateIx := mate.Build(bench.Tables)
	db := storage.Build(bench.Tables, 1)

	res := taskResult{
		locBlend: locBlendFeature, locBase: locBaseFeature,
		systems: 2, indexes: "Single vs Multi",
	}
	for _, q := range bench.Queries {
		// One existing feature: a shifted variant of the target acts as a
		// plausible already-owned column.
		feature := make([]float64, len(q.Targets))
		for i := range feature {
			feature[i] = float64(i%7) + 0.1*q.Targets[i]
		}
		joinTuples := make([][]string, 0, 4)
		for i := 0; i < 4 && i < len(q.Keys); i++ {
			joinTuples = append(joinTuples, []string{q.Keys[i]})
		}
		plan := blend.FeatureDiscoveryPlan(q.Keys, q.Targets, [][]float64{feature}, joinTuples, 10)
		res.runBoth(ctx, d, plan)
		res.base += timeIt(func() {
			baselineFeature(sketchIx, mateIx, db, q.Keys, q.Targets, [][]float64{feature}, joinTuples, 10)
		})
	}
	return res
}

// baselineFeature is the federated implementation of §VIII-B4: repeated
// rounds of the QCR sketch (target, then each feature, filtering previous
// results) plus MATE for joinability, intersected in application code.
func baselineFeature(si *qcrsketch.Index, mi *mate.Index, db *storage.ShardedStore, keys []string, target []float64, features [][]float64, joinTuples [][]string, k int) []string {
	targetHits := si.Search(keys, target, k)
	surviving := make(map[int32]struct{}, len(targetHits))
	for _, h := range targetHits {
		surviving[h.TableID] = struct{}{}
	}
	for _, feat := range features {
		for _, h := range si.Search(keys, feat, k) {
			delete(surviving, h.TableID)
		}
	}
	mateHits, _ := mi.Search(joinTuples, -1)
	var out []string
	for _, h := range mateHits {
		if _, ok := surviving[h.TableID]; ok {
			// Load the feature table so its column can join the dataset.
			_ = db.ReconstructTable(h.TableID)
			out = append(out, mi.TableName(h.TableID))
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func runMultiTask(ctx context.Context, scale Scale, queries int) taskResult {
	lake := negLake(scale, 24)
	d := blend.IndexTables(blend.ColumnStore, lake.Tables)
	josieIx := josie.Build(lake.Tables)
	starmieIx := starmie.Build(lake.Tables)
	sketchIx := qcrsketch.Build(lake.Tables, 256)
	db := storage.Build(lake.Tables, 1)

	res := taskResult{
		locBlend: locBlendMulti, locBase: locBaseMulti,
		systems: 3, indexes: "Single vs Multi",
	}
	for q := 0; q < queries; q++ {
		src := lake.Tables[q%len(lake.Tables)]
		query := sampleQueryTable(src, 8)
		keywords := lake.QueryColumn(3)
		plan, err := blend.MultiObjectivePlan(keywords, query, "col0", "col3", 10)
		if err != nil {
			panic(err)
		}
		res.runBoth(ctx, d, plan)
		res.base += timeIt(func() {
			baselineMulti(josieIx, starmieIx, sketchIx, db, keywords, query, 10)
		})
	}
	return res
}

// baselineMulti is the federated implementation of §VIII-B5: JOSIE for
// keyword/join search, Starmie for union search, and the QCR sketch for
// correlation search, with application code gluing three systems and three
// index formats together.
func baselineMulti(ji *josie.Index, si *starmie.Index, qi *qcrsketch.Index, db *storage.ShardedStore, keywords []string, query *table.Table, k int) []string {
	union := make(map[string]struct{})
	// Each subsystem's results cross a system boundary: the tables are
	// loaded from the database to be merged in application memory.
	for _, h := range ji.SearchTables(keywords, k) {
		_ = db.ReconstructTable(h.Column.TableID)
		union[ji.TableName(h.Column.TableID)] = struct{}{}
	}
	for _, h := range si.Search(query, k) {
		_ = db.ReconstructTable(h.TableID)
		union[si.TableName(h.TableID)] = struct{}{}
	}
	targets, rows := query.NumericColumnValues(query.NumCols() - 1)
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = query.Cell(r, 0)
	}
	for _, h := range qi.Search(keys, targets, k) {
		_ = db.ReconstructTable(h.TableID)
		union[qi.TableName(h.TableID)] = struct{}{}
	}
	out := make([]string, 0, len(union))
	for n := range union {
		out = append(out, n)
	}
	return out
}

// sampleQueryTable copies the first n rows of src as a query table.
func sampleQueryTable(src *table.Table, n int) *table.Table {
	q := table.New("query")
	q.Columns = append(q.Columns, src.Columns...)
	for r := 0; r < n && r < src.NumRows(); r++ {
		q.Rows = append(q.Rows, src.Rows[r])
	}
	return q
}

func mustRun(res *blend.Result, err error) *blend.Result {
	if err != nil {
		panic(err)
	}
	return res
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
