package blend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"blend/internal/core"
)

// fig1Tables builds the paper's Fig. 1 lake through the public API.
func fig1Tables() []*Table {
	t1 := NewTable("T1", "Team", "Size")
	t1.MustAppendRow("Finance", "31")
	t1.MustAppendRow("Marketing", "28")
	t1.MustAppendRow("HR", "33")
	t1.MustAppendRow("IT", "92")
	t1.MustAppendRow("Sales", "80")

	t2 := NewTable("T2", "Lead", "Year", "Team")
	t2.MustAppendRow("Tom Riddle", "2022", "IT")
	t2.MustAppendRow("Draco Malfoy", "2022", "Marketing")
	t2.MustAppendRow("Harry Potter", "2022", "Finance")
	t2.MustAppendRow("Cho Chang", "2022", "R&D")
	t2.MustAppendRow("Luna Lovegood", "2022", "Sales")
	t2.MustAppendRow("Firenze", "2022", "HR")

	t3 := NewTable("T3", "Lead", "Year", "Team")
	t3.MustAppendRow("Ronald Weasley", "2024", "IT")
	t3.MustAppendRow("Draco Malfoy", "2024", "Marketing")
	t3.MustAppendRow("Harry Potter", "2024", "Finance")
	t3.MustAppendRow("Cho Chang", "2024", "R&D")
	t3.MustAppendRow("Luna Lovegood", "2024", "Sales")
	t3.MustAppendRow("Firenze", "2024", "HR")

	for _, t := range []*Table{t1, t2, t3} {
		t.InferKinds()
	}
	return []*Table{t1, t2, t3}
}

var deps = []string{"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}

func TestEndToEndExample1(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	p := NegativeExamplesPlan(
		[][]string{{"HR", "Firenze"}},
		[][]string{{"IT", "Tom Riddle"}},
		10,
	)
	p.MustAddSeeker("dep", SC(deps, 10))
	p.MustAddCombiner("intersect", Intersect(10), "exclude", "dep")
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tables, []string{"T3"}) {
		t.Fatalf("Example 1 result = %v, want [T3]", res.Tables)
	}
}

func TestSeekStandalone(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	hits, err := d.Seek(context.Background(), SC(deps, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	names := d.TableNames(hits)
	if names[0] != "T2" && names[0] != "T3" {
		t.Fatalf("names = %v", names)
	}
}

func TestIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lake.blend")
	d := IndexTables(ColumnStore, fig1Tables())
	if err := d.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := d.Seek(context.Background(), KW([]string{"Firenze"}, 5))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := d2.Seek(context.Background(), KW([]string{"Firenze"}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("reloaded index answers differently")
	}
	if _, err := OpenIndex(filepath.Join(dir, "missing.blend")); err == nil {
		t.Fatal("missing index must fail")
	}
}

func TestIndexCSVDir(t *testing.T) {
	dir := t.TempDir()
	for _, tb := range fig1Tables() {
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	d, err := IndexCSVDir(ColumnStore, dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTables() != 3 {
		t.Fatalf("tables = %d", d.NumTables())
	}
	for _, bad := range []string{t.TempDir(), filepath.Join(dir, "missing")} {
		if _, err := IndexCSVDir(ColumnStore, bad); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("IndexCSVDir(%s) error = %v, want bad_request", bad, err)
		}
	}
}

func TestUnionSearchPlan(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	// Query table shaped like T2/T3: Lead, Year, Team.
	q := NewTable("q", "Lead", "Year", "Team")
	q.MustAppendRow("Firenze", "2022", "HR")
	q.MustAppendRow("Harry Potter", "2022", "Finance")
	p := UnionSearchPlan(q, 100, 2)
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || res.Tables[0] != "T2" {
		t.Fatalf("union search = %v, want T2 first", res.Tables)
	}
	// T2 matches all three columns; its Counter score must be 3.
	if res.Output[0].Score != 3 {
		t.Fatalf("T2 counter score = %v", res.Output[0].Score)
	}
}

func TestImputationPlan(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	p := ImputationPlan(
		[][]string{{"HR", "Firenze"}},                 // complete example rows
		[]string{"Marketing", "Finance", "IT", "R&D"}, // incomplete rows' known values
		10,
	)
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"T2", "T3"}
	got := append([]string(nil), res.Tables...)
	if len(got) != 2 || !((got[0] == want[0] && got[1] == want[1]) || (got[0] == want[1] && got[1] == want[0])) {
		t.Fatalf("imputation = %v, want T2 and T3", res.Tables)
	}
}

func TestFeatureDiscoveryPlan(t *testing.T) {
	// Lake: table correlating with target, table correlating with an
	// existing feature (multicollinear — must be excluded).
	n := 24
	cities := make([]string, n)
	target := make([]float64, n)
	feature := make([]float64, n)
	for i := 0; i < n; i++ {
		cities[i] = "c" + strconv.Itoa(i)
		target[i] = float64(i + 1)
		// Independent of the target: a fixed pseudo-random pattern.
		feature[i] = float64((i*37+11)%23 + 1)
	}
	targetTab := NewTable("target_side", "City", "Metric")
	featTab := NewTable("collinear_side", "City", "Copy")
	for i := 0; i < n; i++ {
		targetTab.MustAppendRow(cities[i], strconv.Itoa(int(target[i])*3))
		// Perfectly tracks the existing feature — multicollinear.
		featTab.MustAppendRow(cities[i], strconv.Itoa(int(feature[i])*7))
	}
	targetTab.InferKinds()
	featTab.InferKinds()
	d := IndexTables(ColumnStore, []*Table{targetTab, featTab})

	joinTuples := make([][]string, 0, 5)
	for i := 0; i < 5; i++ {
		joinTuples = append(joinTuples, []string{cities[i], strconv.Itoa(int(target[i]) * 3)})
	}
	p := FeatureDiscoveryPlan(cities, target, [][]float64{feature}, joinTuples, 1)
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tables, []string{"target_side"}) {
		t.Fatalf("feature discovery = %v, want [target_side]", res.Tables)
	}
}

func TestMultiObjectivePlan(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	q := NewTable("q", "Team", "Size")
	q.MustAppendRow("HR", "33")
	q.MustAppendRow("IT", "92")
	q.MustAppendRow("Sales", "80")
	q.InferKinds()
	p, err := MultiObjectivePlan([]string{"Firenze"}, q, "Team", "Size", 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Fatal("multi-objective plan found nothing")
	}
	// T1 holds the exact Size column; it must be present.
	found := false
	for _, n := range res.Tables {
		if n == "T1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("T1 missing from %v", res.Tables)
	}
	if _, err := MultiObjectivePlan(nil, q, "nope", "Size", 5); err == nil {
		t.Fatal("unknown column must fail")
	}
}

func TestRunUnoptimizedMatchesOptimized(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	p := ImputationPlan([][]string{{"HR", "Firenze"}}, deps, 10)
	a, err := d.Run(context.Background(), p, WithoutOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableSet(a.Tables), tableSet(b.Tables)) {
		t.Fatalf("B-NO %v vs BLEND %v", a.Tables, b.Tables)
	}
}

func tableSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestSetCorrelationSampleSize(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	d.SetCorrelationSampleSize(64)
	if d.Engine().SampleH != 64 {
		t.Fatal("sample size not set")
	}
}

func TestIndexSizeBytes(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	if d.IndexSizeBytes() <= 0 {
		t.Fatal("index size must be positive")
	}
}

func TestSemanticSeekerPublicAPI(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	hits, err := d.Seek(context.Background(), Semantic([]string{"Firenze", "Draco Malfoy"}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("semantic seeker found nothing")
	}
	names := d.TableNames(hits)
	if names[0] != "T2" && names[0] != "T3" {
		t.Fatalf("semantic best = %v", names)
	}
}

func TestAddTablePublicAPI(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	nt := NewTable("T4", "Team", "Head")
	nt.MustAppendRow("Quidditch", "Oliver Wood")
	if err := d.AddTable(nt); err != nil {
		t.Fatal(err)
	}
	if d.NumTables() != 4 {
		t.Fatalf("tables = %d", d.NumTables())
	}
	hits, err := d.Seek(context.Background(), KW([]string{"Quidditch"}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || d.TableNames(hits)[0] != "T4" {
		t.Fatalf("incrementally added table not discoverable: %v", hits)
	}
}

// failingJournal is a write-ahead log whose every append fails.
type failingJournal struct{ err error }

func (j failingJournal) AddTables([]*Table) error { return j.err }
func (j failingJournal) RemoveTable(int32) error  { return j.err }
func (j failingJournal) Compact() error           { return j.err }
func (j failingJournal) Checkpoint(uint64) error  { return j.err }

// TestAddTableRejectsWithoutPublishing asserts AddTable's two refusals:
// a journal append failure returns a typed error rather than panicking,
// and a name already indexed returns ErrDuplicateTable. Neither publishes
// a generation or grows the index.
func TestAddTableRejectsWithoutPublishing(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	gen, tables := d.Generation(), d.NumTables()
	unchanged := func(what string) {
		t.Helper()
		if d.Generation() != gen || d.NumTables() != tables {
			t.Fatalf("%s: generation %d, tables %d; want %d, %d",
				what, d.Generation(), d.NumTables(), gen, tables)
		}
	}

	dup := NewTable("T1", "Team")
	dup.MustAppendRow("Quidditch")
	if err := d.AddTable(dup); !errors.Is(err, ErrDuplicateTable) {
		t.Fatalf("duplicate name: err = %v, want ErrDuplicateTable", err)
	}
	unchanged("duplicate")

	diskFull := errors.New("no space left on device")
	d.Engine().SetJournal(failingJournal{err: diskFull})
	nt := NewTable("T4", "Team")
	nt.MustAppendRow("Quidditch")
	err := d.AddTable(nt)
	if !errors.Is(err, ErrInternal) || !errors.Is(err, diskFull) {
		t.Fatalf("journal failure: err = %v, want ErrInternal wrapping the cause", err)
	}
	unchanged("journal failure")
}

// TestCompactRejectsWithoutPublishing asserts that a journal append
// failure during Compact returns a typed internal error wrapping the cause
// instead of panicking, with the generation, the table count and the
// pending tombstone unchanged; the compaction succeeds once the journal
// accepts it.
func TestCompactRejectsWithoutPublishing(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	if err := d.RemoveTable(0); err != nil {
		t.Fatal(err)
	}
	gen, tables := d.Generation(), d.NumTables()
	diskFull := errors.New("no space left on device")
	d.Engine().SetJournal(failingJournal{err: diskFull})
	n, err := d.Compact()
	if n != 0 || !errors.Is(err, ErrInternal) || !errors.Is(err, diskFull) {
		t.Fatalf("journal failure: Compact = %d, %v; want 0 and ErrInternal wrapping the cause", n, err)
	}
	if d.Generation() != gen || d.NumTables() != tables || d.Stats().Tombstones != 1 {
		t.Fatalf("journal failure published: generation %d, tables %d, tombstones %d; want %d, %d, 1",
			d.Generation(), d.NumTables(), d.Stats().Tombstones, gen, tables)
	}
	d.Engine().SetJournal(nil)
	if n, err := d.Compact(); err != nil || n != 1 {
		t.Fatalf("Compact after the journal recovered = %d, %v; want 1", n, err)
	}
}

// TestParallelPublicAPI runs a union-search plan with one scheduler worker
// and with four (the width is GOMAXPROCS): the answer and every node's
// hits must not depend on it.
func TestParallelPublicAPI(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	q := NewTable("q", "Lead", "Year", "Team")
	q.MustAppendRow("Firenze", "2024", "HR")
	p := UnionSearchPlan(q, 100, 5)
	runAt := func(width int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
		res, err := d.Run(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := runAt(1), runAt(4)
	if len(one.Tables) == 0 || !reflect.DeepEqual(one.Tables, four.Tables) {
		t.Fatalf("GOMAXPROCS 4 %v != GOMAXPROCS 1 %v", four.Tables, one.Tables)
	}
	if !reflect.DeepEqual(one.NodeHits, four.NodeHits) {
		t.Fatal("NodeHits depend on the scheduler width")
	}
}

func TestWritePlanDotPublicAPI(t *testing.T) {
	p := ImputationPlan([][]string{{"a", "b"}}, []string{"c"}, 5)
	var buf bytes.Buffer
	if err := WritePlanDot(p, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("digraph plan")) {
		t.Fatal("dot output malformed")
	}
}

// weightedVote is a user-defined combiner (the paper: "the user can
// introduce new combiners to the system"): tables score by the sum of
// their per-input ranks, inverted so earlier ranks count more.
type weightedVote struct{ k int }

func (w *weightedVote) Kind() core.CombinerKind { return core.Counter }
func (w *weightedVote) TopK() int               { return w.k }
func (w *weightedVote) MinInputs() int          { return 1 }
func (w *weightedVote) MaxInputs() int          { return -1 }
func (w *weightedVote) Combine(inputs []Hits) Hits {
	score := map[int32]float64{}
	for _, in := range inputs {
		for rank, h := range in {
			score[h.TableID] += 1 / float64(rank+1)
		}
	}
	var out Hits
	for id, s := range score {
		out = append(out, TableHit{TableID: id, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].TableID < out[b].TableID
	})
	if len(out) > w.k {
		out = out[:w.k]
	}
	return out
}

func TestCustomCombinerThroughPublicAPI(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	p := NewPlan()
	p.MustAddSeeker("kw", KW([]string{"Firenze", "2024"}, 10))
	p.MustAddSeeker("sc", SC(deps, 10))
	p.MustAddCombiner("vote", &weightedVote{k: 2}, "kw", "sc")
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("custom combiner result = %v", res.Tables)
	}
	// kw ranks T3 first; sc ties T2/T3 with T2 ahead on the id tie
	// break — so the vote ties at 1.5 and T2 (lower id) wins.
	if !reflect.DeepEqual(res.Tables, []string{"T2", "T3"}) {
		t.Fatalf("vote ranking = %v", res.Tables)
	}
}

func TestShardedIndexPublicAPI(t *testing.T) {
	mono := IndexTables(ColumnStore, fig1Tables())
	shard := IndexTables(ColumnStore, fig1Tables(), WithShards(4))
	if mono.NumShards() != 1 || shard.NumShards() != 4 {
		t.Fatalf("shard counts: mono=%d shard=%d", mono.NumShards(), shard.NumShards())
	}
	p := NegativeExamplesPlan(
		[][]string{{"HR", "Firenze"}},
		[][]string{{"IT", "Tom Riddle"}},
		10,
	)
	p.MustAddSeeker("dep", SC(deps, 10))
	p.MustAddCombiner("intersect", Intersect(10), "exclude", "dep")
	ref, err := mono.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shard.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Tables, got.Tables) {
		t.Fatalf("sharded run %v != monolithic %v", got.Tables, ref.Tables)
	}
	if !reflect.DeepEqual(ref.NodeHits, got.NodeHits) {
		t.Fatal("sharded NodeHits differ from monolithic")
	}
}

// TestPersistenceRegressionBothFormats round-trips SaveIndex/OpenIndex for
// both v4 file kinds (monolithic for one shard, sharded for more),
// including incremental AddTable after load.
func TestPersistenceRegressionBothFormats(t *testing.T) {
	dir := t.TempDir()
	for _, shards := range []int{1, 3} {
		name := fmt.Sprintf("s%d.blend", shards)
		d := IndexTables(ColumnStore, fig1Tables(), WithShards(shards))
		path := filepath.Join(dir, name)
		if err := d.SaveIndex(path); err != nil {
			t.Fatal(err)
		}
		back, err := OpenIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumShards() != shards {
			t.Fatalf("%s: shards = %d after reload", name, back.NumShards())
		}
		h1, err := d.Seek(context.Background(), KW([]string{"Firenze", "IT"}, 5))
		if err != nil {
			t.Fatal(err)
		}
		h2, err := back.Seek(context.Background(), KW([]string{"Firenze", "IT"}, 5))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h1, h2) {
			t.Fatalf("%s: reloaded index answers differently", name)
		}
		// Incremental maintenance must keep working on the loaded
		// index, whichever format it came from.
		nt := NewTable("T9", "Team", "Head")
		nt.MustAppendRow("Astronomy", "Aurora Sinistra")
		if err := back.AddTable(nt); err != nil {
			t.Fatal(err)
		}
		hits, err := back.Seek(context.Background(), KW([]string{"Astronomy"}, 5))
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 || back.TableNames(hits)[0] != "T9" {
			t.Fatalf("%s: AddTable after load not discoverable: %v", name, hits)
		}
		// And the grown index must round-trip again.
		if err := back.SaveIndex(path); err != nil {
			t.Fatal(err)
		}
		again, err := OpenIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.NumTables() != back.NumTables() {
			t.Fatalf("%s: second round trip lost tables", name)
		}
	}
}

// TestRunWithContextPublicAPI exercises context cancellation end to end,
// including the typed-error contract: a canceled run matches ErrCanceled
// and still wraps context.Canceled.
func TestRunWithContextPublicAPI(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables(), WithShards(2))
	p := NewPlan()
	p.MustAddSeeker("kw", KW(deps, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.Run(ctx, p)
	if err == nil {
		t.Fatal("pre-cancelled context must abort the plan")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run must match ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run must wrap context.Canceled, got %v", err)
	}
	res, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Fatal("live context run found nothing")
	}
}
