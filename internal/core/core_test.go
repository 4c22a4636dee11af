package core

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"blend/internal/datalake"
	"blend/internal/storage"
	"blend/internal/table"
)

// fig1Lake builds the data lake of the paper's Fig. 1 (tables T1, T2, T3;
// the query table S is not indexed).
func fig1Lake() []*table.Table {
	t1 := table.New("T1", "Team", "Size")
	t1.MustAppendRow("Finance", "31")
	t1.MustAppendRow("Marketing", "28")
	t1.MustAppendRow("HR", "33")
	t1.MustAppendRow("IT", "92")
	t1.MustAppendRow("Sales", "80")

	t2 := table.New("T2", "Lead", "Year", "Team")
	t2.MustAppendRow("Tom Riddle", "2022", "IT")
	t2.MustAppendRow("Draco Malfoy", "2022", "Marketing")
	t2.MustAppendRow("Harry Potter", "2022", "Finance")
	t2.MustAppendRow("Cho Chang", "2022", "R&D")
	t2.MustAppendRow("Luna Lovegood", "2022", "Sales")
	t2.MustAppendRow("Firenze", "2022", "HR")

	t3 := table.New("T3", "Lead", "Year", "Team")
	t3.MustAppendRow("Ronald Weasley", "2024", "IT")
	t3.MustAppendRow("Draco Malfoy", "2024", "Marketing")
	t3.MustAppendRow("Harry Potter", "2024", "Finance")
	t3.MustAppendRow("Cho Chang", "2024", "R&D")
	t3.MustAppendRow("Luna Lovegood", "2024", "Sales")
	t3.MustAppendRow("Firenze", "2024", "HR")

	for _, t := range []*table.Table{t1, t2, t3} {
		t.InferKinds()
	}
	return []*table.Table{t1, t2, t3}
}

func fig1Engine() *Engine {
	return NewEngine(storage.Build(fig1Lake(), 1))
}

var departments = []string{"HR", "Marketing", "Finance", "IT", "R&D", "Sales"}

func TestSCSeeker(t *testing.T) {
	e := fig1Engine()
	hits, stats, err := e.RunSeeker(context.Background(), NewSC(departments, 10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kind != SC || stats.SQLRows == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// T2 and T3 overlap on all 6 departments in their Team column; T1 on 5.
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Score != 6 || hits[1].Score != 6 || hits[2].Score != 5 {
		t.Fatalf("scores = %v", hits)
	}
	if e.Store().TableName(hits[2].TableID) != "T1" {
		t.Fatal("T1 should be last")
	}
}

func TestSCSeekerTopKCut(t *testing.T) {
	e := fig1Engine()
	hits, _, err := e.RunSeeker(context.Background(), NewSC(departments, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("k=2 returned %d hits", len(hits))
	}
}

func TestSCSeekerEmptyInput(t *testing.T) {
	e := fig1Engine()
	hits, _, err := e.RunSeeker(context.Background(), NewSC(nil, 5))
	if err != nil || len(hits) != 0 {
		t.Fatalf("hits=%v err=%v", hits, err)
	}
}

func TestKWSeeker(t *testing.T) {
	e := fig1Engine()
	hits, _, err := e.RunSeeker(context.Background(), NewKW([]string{"Firenze", "2024"}, 10))
	if err != nil {
		t.Fatal(err)
	}
	// T3 matches both keywords, T2 only Firenze.
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if e.Store().TableName(hits[0].TableID) != "T3" || hits[0].Score != 2 {
		t.Fatalf("best = %v", hits[0])
	}
}

// TestRunStatsFunnelKinds pins the RunStats invariant: Candidates and
// Validated belong to the MC and semantic validation funnels and are
// exactly zero for every other seeker kind, on both execution paths —
// consumers must gate funnel attribution on Kind, never on non-zero
// counters.
func TestRunStatsFunnelKinds(t *testing.T) {
	for _, noNative := range []bool{false, true} {
		e := fig1Engine()
		e.NoNativeExec = noNative
		seekers := map[string]Seeker{
			"sc": NewSC(departments, 10),
			"kw": NewKW([]string{"Firenze", "2024"}, 10),
			"c":  NewCorrelation([]string{"HR", "IT", "Sales"}, []float64{33, 92, 80}, 10),
		}
		for name, s := range seekers {
			_, stats, err := e.RunSeeker(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Candidates != 0 || stats.Validated != 0 {
				t.Fatalf("%s (noNative=%v): funnel counters leaked: %+v", name, noNative, stats)
			}
		}
		// The MC seeker does populate the funnel — on both paths.
		_, stats, err := e.RunSeeker(context.Background(), NewMC([][]string{{"HR", "Firenze"}}, 10))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates == 0 || stats.Validated == 0 {
			t.Fatalf("mc (noNative=%v): funnel empty: %+v", noNative, stats)
		}
		// So does the semantic seeker: ANN candidates in, posting-validated
		// tables out (departments appear verbatim in the lake).
		_, stats, err = e.RunSeeker(context.Background(), NewSemantic(departments, 10))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates == 0 || stats.Validated == 0 {
			t.Fatalf("semantic (noNative=%v): funnel empty: %+v", noNative, stats)
		}
	}
}

func TestMCSeekerExample1(t *testing.T) {
	e := fig1Engine()
	// Positive examples: tables containing ("HR", "Firenze") in a row.
	hits, stats, err := e.RunSeeker(context.Background(), NewMC([][]string{{"HR", "Firenze"}}, 10))
	if err != nil {
		t.Fatal(err)
	}
	names := e.TableNames(hits)
	if !reflect.DeepEqual(names, []string{"T2", "T3"}) {
		t.Fatalf("rs1 = %v, want [T2 T3]", names)
	}
	if stats.Validated != 2 {
		t.Fatalf("validated = %d", stats.Validated)
	}
	// Negative examples: tables containing ("IT", "Tom Riddle").
	hits, _, err = e.RunSeeker(context.Background(), NewMC([][]string{{"IT", "Tom Riddle"}}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if names := e.TableNames(hits); !reflect.DeepEqual(names, []string{"T2"}) {
		t.Fatalf("rs2 = %v, want [T2]", names)
	}
}

func TestMCSeekerRejectsMisaligned(t *testing.T) {
	e := fig1Engine()
	// "HR" and "Tom Riddle" both exist in T2, but never in the same row.
	hits, _, err := e.RunSeeker(context.Background(), NewMC([][]string{{"HR", "Tom Riddle"}}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("misaligned tuple matched %v", e.TableNames(hits))
	}
}

func TestMCSeekerCountsJoinableRows(t *testing.T) {
	e := fig1Engine()
	hits, _, err := e.RunSeeker(context.Background(), NewMC([][]string{
		{"IT", "2024"}, {"HR", "2024"}, {"Sales", "2024"},
	}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || e.Store().TableName(hits[0].TableID) != "T3" || hits[0].Score != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestMCSeekerEmpty(t *testing.T) {
	e := fig1Engine()
	hits, _, err := e.RunSeeker(context.Background(), NewMC(nil, 10))
	if err != nil || len(hits) != 0 {
		t.Fatalf("hits=%v err=%v", hits, err)
	}
}

// correlationLake plants a table whose numeric column correlates perfectly
// (positively or negatively) with the query target, and a decoy without
// correlation.
func corrCities() []string {
	cities := make([]string, 30)
	for i := range cities {
		cities[i] = "city" + strconv.Itoa(i)
	}
	return cities
}

func correlationLake() []*table.Table {
	good := table.New("good", "City", "Pop")
	noise := table.New("noise", "City", "Rand")
	anti := table.New("anti", "City", "Neg")
	rng := rand.New(rand.NewSource(5))
	for i, c := range corrCities() {
		good.MustAppendRow(c, strconv.Itoa((i+1)*10))
		noise.MustAppendRow(c, strconv.Itoa(rng.Intn(1000)))
		anti.MustAppendRow(c, strconv.Itoa(1000-(i+1)*10))
	}
	for _, t := range []*table.Table{good, noise, anti} {
		t.InferKinds()
	}
	return []*table.Table{good, noise, anti}
}

func TestCorrelationSeeker(t *testing.T) {
	e := NewEngine(storage.Build(correlationLake(), 1))
	keys := corrCities()
	targets := make([]float64, len(keys))
	for i := range targets {
		targets[i] = float64(i + 1)
	}
	hits, _, err := e.RunSeeker(context.Background(), NewCorrelation(keys, targets, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	names := e.TableNames(hits)
	// Both the positively and the negatively correlated tables score
	// |QCR| = 1 and must outrank the noise table.
	for _, n := range names {
		if n == "noise" {
			t.Fatalf("noise outranked a correlated table: %v", names)
		}
	}
	if hits[0].Score != 1 {
		t.Fatalf("top |QCR| = %v, want 1", hits[0].Score)
	}
}

func TestCorrelationSeekerNumericKeys(t *testing.T) {
	// Numeric join keys are a BLEND advantage over the sketch baseline
	// (§VIII-G). Keys are numbers stored as strings in the lake.
	tb := table.New("numkey", "Id", "Metric")
	for i := 1; i <= 8; i++ {
		tb.MustAppendRow(strconv.Itoa(i), strconv.Itoa(i*100))
	}
	tb.InferKinds()
	e := NewEngine(storage.Build([]*table.Table{tb}, 1))
	keys := []string{"1", "2", "3", "4", "5", "6", "7", "8"}
	targets := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	hits, _, err := e.RunSeeker(context.Background(), NewCorrelation(keys, targets, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Score < 0.9 {
		t.Fatalf("numeric-key correlation failed: %v", hits)
	}
}

func TestExample1FullPlan(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("P_examples", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddSeeker("N_examples", NewMC([][]string{{"IT", "Tom Riddle"}}, 10))
	p.MustAddCombiner("exclude", NewDifference(10), "P_examples", "N_examples")
	p.MustAddSeeker("dep", NewSC(departments, 10))
	p.MustAddCombiner("intersect", NewIntersect(10), "exclude", "dep")

	for _, opt := range []bool{false, true} {
		res, err := e.Run(context.Background(), p, RunOptions{Optimize: opt})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Tables, []string{"T3"}) {
			t.Fatalf("optimize=%v: result = %v, want [T3]", opt, res.Tables)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	p := NewPlan()
	if err := p.AddSeeker("", NewSC([]string{"x"}, 1)); err == nil {
		t.Fatal("empty id must fail")
	}
	if err := p.AddSeeker("a", nil); err == nil {
		t.Fatal("nil seeker must fail")
	}
	p.MustAddSeeker("a", NewSC([]string{"x"}, 1))
	if err := p.AddSeeker("a", NewSC([]string{"y"}, 1)); err == nil {
		t.Fatal("duplicate id must fail")
	}
	if err := p.AddCombiner("c", NewDifference(1), "a"); err == nil {
		t.Fatal("difference with one input must fail")
	}
	if err := p.AddCombiner("c", NewDifference(1), "a", "b", "x"); err == nil {
		t.Fatal("difference with three inputs must fail")
	}
	if err := p.AddCombiner("c", nil, "a", "a"); err == nil {
		t.Fatal("nil combiner must fail")
	}
	if err := p.SetOutput("zzz"); err == nil {
		t.Fatal("unknown output must fail")
	}
}

func TestPlanUnknownInput(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("a", NewSC([]string{"HR"}, 5))
	p.MustAddCombiner("c", NewIntersect(5), "a", "ghost")
	if _, err := e.Run(context.Background(), p, RunOptions{Optimize: true}); err == nil {
		t.Fatal("unknown input must fail at run time")
	}
}

func TestPlanEmpty(t *testing.T) {
	e := fig1Engine()
	if _, err := e.Run(context.Background(), NewPlan(), RunOptions{Optimize: true}); err == nil {
		t.Fatal("empty plan must fail")
	}
}

func TestPlanOutputDefaultsToLastNode(t *testing.T) {
	p := NewPlan()
	p.MustAddSeeker("a", NewSC([]string{"HR"}, 5))
	p.MustAddSeeker("b", NewSC([]string{"IT"}, 5))
	if p.Output() != "b" {
		t.Fatalf("output = %q", p.Output())
	}
	if err := p.SetOutput("a"); err != nil {
		t.Fatal(err)
	}
	if p.Output() != "a" {
		t.Fatal("SetOutput did not stick")
	}
}

func TestCombinerAlgebra(t *testing.T) {
	a := Hits{{1, 5}, {2, 3}, {3, 1}}
	b := Hits{{2, 4}, {3, 2}, {4, 9}}

	inter := NewIntersect(-1).Combine([]Hits{a, b})
	if ids := inter.TableIDs(); !reflect.DeepEqual(ids, []int32{2, 3}) {
		t.Fatalf("intersect = %v", ids)
	}
	// Commutativity.
	inter2 := NewIntersect(-1).Combine([]Hits{b, a})
	if !reflect.DeepEqual(inter, inter2) {
		t.Fatal("intersection must be commutative")
	}

	uni := NewUnion(-1).Combine([]Hits{a, b})
	if len(uni) != 4 {
		t.Fatalf("union = %v", uni)
	}
	if !uni.Contains(1) || !uni.Contains(4) {
		t.Fatal("union lost tables")
	}

	diff := NewDifference(-1).Combine([]Hits{a, b})
	if ids := diff.TableIDs(); !reflect.DeepEqual(ids, []int32{1}) {
		t.Fatalf("difference = %v", ids)
	}

	cnt := NewCounter(-1).Combine([]Hits{a, b, a})
	// Table 2 appears in 3 inputs, 1 and 3 in 2 (3 also in b), 4 in 1.
	if cnt[0].TableID != 2 && cnt[0].Score != 3 {
		t.Fatalf("counter = %v", cnt)
	}
	if cnt[len(cnt)-1].TableID != 4 {
		t.Fatalf("counter tail = %v", cnt)
	}
}

func TestCounterIgnoresDuplicatesWithinInput(t *testing.T) {
	in := Hits{{1, 5}, {1, 4}}
	cnt := NewCounter(-1).Combine([]Hits{in})
	if len(cnt) != 1 || cnt[0].Score != 1 {
		t.Fatalf("counter = %v", cnt)
	}
}

func TestCombinerTopK(t *testing.T) {
	a := Hits{{1, 1}, {2, 2}, {3, 3}}
	uni := NewUnion(2).Combine([]Hits{a})
	if len(uni) != 2 || uni[0].TableID != 3 {
		t.Fatalf("union k=2: %v", uni)
	}
}

func TestHitsHelpers(t *testing.T) {
	h := Hits{{7, 1}, {9, 2}}
	if !h.Contains(9) || h.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if !reflect.DeepEqual(h.TableIDs(), []int32{7, 9}) {
		t.Fatal("TableIDs wrong")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	h := Hits{{5, 1}, {2, 1}, {9, 1}}
	got := topK(h, 2)
	if got[0].TableID != 2 || got[1].TableID != 5 {
		t.Fatalf("tie break = %v", got)
	}
}

func TestRuleRanking(t *testing.T) {
	order := []SeekerKind{KW, SC, C, MC}
	for i := 0; i < len(order)-1; i++ {
		if ruleRank(order[i]) >= ruleRank(order[i+1]) {
			t.Fatalf("rule rank must order %v before %v", order[i], order[i+1])
		}
	}
}

func TestSeekerKindString(t *testing.T) {
	names := map[SeekerKind]string{KW: "KW", SC: "SC", MC: "MC", C: "C", Semantic: "Semantic", Semantic + 1: "Kind(5)"}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestExecutionGroupIdentification(t *testing.T) {
	p := NewPlan()
	p.MustAddSeeker("mc", NewMC([][]string{{"a", "b"}}, 5))
	p.MustAddSeeker("sc", NewSC([]string{"a"}, 5))
	p.MustAddSeeker("kw", NewKW([]string{"a"}, 5))
	p.MustAddCombiner("i", NewIntersect(5), "mc", "sc", "kw")
	groups := p.findExecutionGroups()
	if len(groups) != 1 || len(groups[0].members) != 3 {
		t.Fatalf("groups = %+v", groups)
	}

	// A seeker shared with another combiner must not join the group.
	p2 := NewPlan()
	p2.MustAddSeeker("s1", NewSC([]string{"a"}, 5))
	p2.MustAddSeeker("s2", NewSC([]string{"b"}, 5))
	p2.MustAddCombiner("i", NewIntersect(5), "s1", "s2")
	p2.MustAddCombiner("u", NewUnion(5), "s1", "i")
	groups = p2.findExecutionGroups()
	if len(groups) != 0 {
		t.Fatalf("shared seeker leaked into group: %+v", groups)
	}

	// Union combiners never form groups.
	p3 := NewPlan()
	p3.MustAddSeeker("s1", NewSC([]string{"a"}, 5))
	p3.MustAddSeeker("s2", NewSC([]string{"b"}, 5))
	p3.MustAddCombiner("u", NewUnion(5), "s1", "s2")
	if groups := p3.findExecutionGroups(); len(groups) != 0 {
		t.Fatalf("union formed a group: %+v", groups)
	}
}

func TestOptimizerRunsKWBeforeMC(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("mc", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddSeeker("kw", NewKW([]string{"Firenze"}, 10))
	p.MustAddCombiner("i", NewIntersect(10), "mc", "kw")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.SeekerOrder, []string{"kw", "mc"}) {
		t.Fatalf("order = %v, want [kw mc]", res.SeekerOrder)
	}
	if !res.Stats["mc"].Rewritten {
		t.Fatal("mc should have been rewritten with kw's tables")
	}
	if res.Stats["kw"].Rewritten {
		t.Fatal("first seeker must not be rewritten")
	}
}

// TestOptimizerOrdersSameKindByEstimate asserts the within-kind rule of
// §VII-B: in an Intersect over two seekers of one kind, the one with the
// lower index-frequency estimate runs first even when the plan declares it
// second, and the order is the same on a 1-shard and a 4-shard index
// (Frequency sums over shards, so the estimates are identical).
func TestOptimizerOrdersSameKindByEstimate(t *testing.T) {
	lake := datalake.GenJoinLake(datalake.JoinLakeConfig{
		Name: "rank", NumTables: 40, ColsPerTable: 4, RowsPerTable: 60,
		VocabSize: 800, Seed: 5,
	})
	targets := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i % 7)
		}
		return out
	}
	smallTuples, _ := lake.QueryTuples(2, 2)
	bigTuples, _ := lake.QueryTuples(12, 3)
	smallKeys, bigKeys := lake.QueryColumn(4), lake.QueryColumn(40)
	pairs := []struct {
		kind             SeekerKind
		cheap, expensive Seeker
	}{
		{SC, NewSC(lake.QueryColumn(3), 10), NewSC(lake.QueryColumn(50), 10)},
		{MC, NewMC(smallTuples, 10), NewMC(bigTuples, 10)},
		{C, NewCorrelation(smallKeys, targets(len(smallKeys)), 10),
			NewCorrelation(bigKeys, targets(len(bigKeys)), 10)},
	}
	engines := []*Engine{
		NewEngine(storage.Build(lake.Tables, 1)),
		NewEngine(storage.Build(lake.Tables, 4)),
	}
	for _, pc := range pairs {
		p := NewPlan()
		p.MustAddSeeker("expensive", pc.expensive)
		p.MustAddSeeker("cheap", pc.cheap)
		p.MustAddCombiner("i", NewIntersect(10), "expensive", "cheap")
		var est [2]float64
		for i, e := range engines {
			cheap, exp := pc.cheap.estimate(e.Store()), pc.expensive.estimate(e.Store())
			if cheap >= exp {
				t.Fatalf("%v: estimates do not differ as intended: cheap %v, expensive %v",
					pc.kind, cheap, exp)
			}
			est[i] = cheap
			res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.SeekerOrder, []string{"cheap", "expensive"}) {
				t.Fatalf("%v at %d shards: order = %v, want [cheap expensive]",
					pc.kind, e.NumShards(), res.SeekerOrder)
			}
		}
		if est[0] != est[1] {
			t.Fatalf("%v: estimate differs across shard counts: %v vs %v", pc.kind, est[0], est[1])
		}
	}
}

func TestDifferenceRewriteRunsSubtrahendFirst(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("pos", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddSeeker("neg", NewMC([][]string{{"IT", "Tom Riddle"}}, 10))
	p.MustAddCombiner("diff", NewDifference(10), "pos", "neg")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.SeekerOrder, []string{"neg", "pos"}) {
		t.Fatalf("order = %v, want [neg pos]", res.SeekerOrder)
	}
	if !res.Stats["pos"].Rewritten {
		t.Fatal("minuend should carry the NOT IN rewrite")
	}
	if !reflect.DeepEqual(res.Tables, []string{"T3"}) {
		t.Fatalf("tables = %v", res.Tables)
	}
}

// TestTheorem1OptimizerPreservesOutput property-tests Theorem 1: for random
// plans of seekers and combiners, the optimized execution returns exactly
// the same table set as the unoptimized one.
func TestTheorem1OptimizerPreservesOutput(t *testing.T) {
	e := fig1Engine()
	vocab := []string{"HR", "Marketing", "Finance", "IT", "Sales", "R&D",
		"Firenze", "Tom Riddle", "2022", "2024", "Harry Potter", "Luna Lovegood"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p := NewPlan()
		numSeekers := 2 + rng.Intn(3)
		ids := make([]string, numSeekers)
		for i := range ids {
			id := "s" + strconv.Itoa(i)
			ids[i] = id
			switch rng.Intn(3) {
			case 0:
				p.MustAddSeeker(id, NewSC(randPick(rng, vocab, 1+rng.Intn(4)), 10))
			case 1:
				p.MustAddSeeker(id, NewKW(randPick(rng, vocab, 1+rng.Intn(3)), 10))
			case 2:
				pair := [][]string{{vocab[rng.Intn(6)], vocab[6+rng.Intn(6)]}}
				p.MustAddSeeker(id, NewMC(pair, 10))
			}
		}
		switch rng.Intn(3) {
		case 0:
			p.MustAddCombiner("out", NewIntersect(10), ids...)
		case 1:
			p.MustAddCombiner("out", NewUnion(10), ids...)
		case 2:
			p.MustAddCombiner("out", NewDifference(10), ids[0], ids[1])
		}
		noOpt, err := e.Run(context.Background(), p, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if !sameTableSet(noOpt.Output, opt.Output) {
			t.Fatalf("trial %d: optimizer changed output: %v vs %v\nplan: %s",
				trial, noOpt.Tables, opt.Tables, p)
		}
	}
}

func randPick(rng *rand.Rand, pool []string, n int) []string {
	idx := rng.Perm(len(pool))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[idx[i]]
	}
	return out
}

func sameTableSet(a, b Hits) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int32]struct{}, len(a))
	for _, h := range a {
		set[h.TableID] = struct{}{}
	}
	for _, h := range b {
		if _, ok := set[h.TableID]; !ok {
			return false
		}
	}
	return true
}

func TestForcedOrder(t *testing.T) {
	ranked := []string{"a", "b", "c"}
	got := applyForcedOrder(ranked, []string{"c", "a"})
	if !reflect.DeepEqual(got, []string{"c", "b", "a"}) {
		t.Fatalf("forced order = %v", got)
	}
	// Forced ids not in ranked are ignored.
	got = applyForcedOrder(ranked, []string{"z"})
	if !reflect.DeepEqual(got, ranked) {
		t.Fatalf("unknown forced id changed order: %v", got)
	}
}

func TestRewritePredicate(t *testing.T) {
	if NoRewrite.predicate("TableId") != "" {
		t.Fatal("no-op rewrite must render empty")
	}
	got := IncludeTables([]int32{1, 2}).predicate("TableId")
	if got != " AND TableId IN (1, 2)" {
		t.Fatalf("include = %q", got)
	}
	got = ExcludeTables([]int32{3}).predicate("q0.TableId")
	if got != " AND q0.TableId NOT IN (3)" {
		t.Fatalf("exclude = %q", got)
	}
}

func TestSeekerSQLIncludesRewrite(t *testing.T) {
	sc := NewSC([]string{"x"}, 5)
	sql := sc.SQL(IncludeTables([]int32{7}))
	if want := "TableId IN (7)"; !containsStr(sql, want) {
		t.Fatalf("SQL %q missing %q", sql, want)
	}
	mc := NewMC([][]string{{"a", "b"}}, 5)
	sql = mc.SQL(ExcludeTables([]int32{9}))
	if want := "TableId NOT IN (9)"; !containsStr(sql, want) {
		t.Fatalf("MC SQL %q missing %q", sql, want)
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestParallelExecutionMatchesSequential(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("kw", NewKW([]string{"Firenze", "2024"}, 10))
	p.MustAddSeeker("sc", NewSC(departments, 10))
	p.MustAddSeeker("mc", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddCombiner("all", NewUnion(10), "kw", "sc", "mc")
	seq, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.Run(context.Background(), p, RunOptions{Optimize: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tables, par.Tables) {
		t.Fatalf("parallel %v != sequential %v", par.Tables, seq.Tables)
	}
	if len(par.SeekerOrder) != 3 {
		t.Fatalf("parallel ran %d seekers, want 3", len(par.SeekerOrder))
	}
}

func TestParallelKeepsRewriteDependencies(t *testing.T) {
	// A Difference plan still runs its subtrahend before its minuend even
	// in parallel mode, and the rewrite still applies.
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("pos", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddSeeker("neg", NewMC([][]string{{"IT", "Tom Riddle"}}, 10))
	p.MustAddCombiner("diff", NewDifference(10), "pos", "neg")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tables, []string{"T3"}) {
		t.Fatalf("tables = %v", res.Tables)
	}
	if !res.Stats["pos"].Rewritten {
		t.Fatal("minuend lost its rewrite in parallel mode")
	}
}

func TestParallelIntersectGroupStaysSequential(t *testing.T) {
	// Execution-group members must keep their ranked, rewritten pipeline
	// even when Parallel is requested.
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("kw", NewKW([]string{"Firenze"}, 10))
	p.MustAddSeeker("mc", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddCombiner("i", NewIntersect(10), "kw", "mc")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats["mc"].Rewritten {
		t.Fatal("group member lost its rewrite in parallel mode")
	}
	if !reflect.DeepEqual(res.SeekerOrder, []string{"kw", "mc"}) {
		t.Fatalf("group order broken: %v", res.SeekerOrder)
	}
}

func TestPlanResultProfile(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("mc", NewMC([][]string{{"HR", "Firenze"}}, 10))
	p.MustAddSeeker("kw", NewKW([]string{"Firenze"}, 10))
	p.MustAddCombiner("i", NewIntersect(10), "mc", "kw")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := res.Profile()
	for _, want := range []string{"seeker order: kw → mc", "candidates=", "[rewritten]", "combiner"} {
		if !strings.Contains(prof, want) {
			t.Fatalf("profile missing %q:\n%s", want, prof)
		}
	}
}

// TestPlanResultProfilePaths pins the per-node path column of the profile
// report for the fast-path kinds: the correlation node must show native,
// the semantic node ann — and with the native executor disabled the
// correlation node flips to sql while semantic keeps ann.
func TestPlanResultProfilePaths(t *testing.T) {
	run := func(e *Engine) string {
		t.Helper()
		p := NewPlan()
		p.MustAddSeeker("corr", NewCorrelation(
			[]string{"Finance", "Marketing", "HR", "IT", "Sales"},
			[]float64{31, 28, 33, 92, 80}, 5))
		p.MustAddSeeker("sem", NewSemantic([]string{"Harry Potter", "Luna Lovegood"}, 5))
		p.MustAddCombiner("u", NewUnion(5), "corr", "sem")
		res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Profile()
	}

	prof := run(fig1Engine())
	for _, want := range []string{PathNative, PathANN} {
		if !strings.Contains(prof, want) {
			t.Fatalf("native-engine profile missing %q:\n%s", want, prof)
		}
	}

	sqlEngine := fig1Engine()
	sqlEngine.NoNativeExec = true
	prof = run(sqlEngine)
	if strings.Contains(prof, PathNative) || !strings.Contains(prof, PathSQL) || !strings.Contains(prof, PathANN) {
		t.Fatalf("sql-engine profile paths wrong:\n%s", prof)
	}
}

func TestSCSeekerMinOverlap(t *testing.T) {
	e := fig1Engine()
	s := NewSC(departments, 10)
	s.MinOverlap = 6 // T1 overlaps only 5 departments
	hits, _, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("min-overlap hits = %v", e.TableNames(hits))
	}
	for _, h := range hits {
		if h.Score < 6 {
			t.Fatalf("threshold leaked: %v", hits)
		}
	}
}

func TestKWSeekerMinOverlap(t *testing.T) {
	e := fig1Engine()
	s := NewKW([]string{"Firenze", "2024"}, 10)
	s.MinOverlap = 2 // only T3 matches both
	hits, _, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || e.Store().TableName(hits[0].TableID) != "T3" {
		t.Fatalf("hits = %v", e.TableNames(hits))
	}
}

func TestDifferenceWithCombinerMinuend(t *testing.T) {
	// The minuend is itself a combiner: no rewrite applies, but the
	// result must still be correct under optimization.
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("a", NewSC(departments, 10))
	p.MustAddSeeker("b", NewKW([]string{"Firenze"}, 10))
	p.MustAddCombiner("u", NewUnion(10), "a", "b")
	p.MustAddSeeker("neg", NewMC([][]string{{"IT", "Tom Riddle"}}, 10))
	p.MustAddCombiner("diff", NewDifference(10), "u", "neg")
	opt, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	noOpt, err := e.Run(context.Background(), p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTableSet(opt.Output, noOpt.Output) {
		t.Fatalf("optimizer changed output: %v vs %v", opt.Tables, noOpt.Tables)
	}
	// The negative tuple ("IT","Tom Riddle") lives in T2 only.
	for _, h := range opt.Output {
		if e.Store().TableName(h.TableID) == "T2" {
			t.Fatalf("T2 must be excluded: %v", opt.Tables)
		}
	}
}

func TestNestedCombiners(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("s1", NewSC(departments, 10))
	p.MustAddSeeker("s2", NewKW([]string{"2022"}, 10))
	p.MustAddSeeker("s3", NewKW([]string{"2024"}, 10))
	p.MustAddCombiner("years", NewUnion(10), "s2", "s3")
	p.MustAddCombiner("both", NewIntersect(10), "s1", "years")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	// T2 (2022) and T3 (2024) join on departments and have a year.
	set := tableNameSet(res.Tables)
	if !set["T2"] || !set["T3"] || set["T1"] {
		t.Fatalf("nested combiner result = %v", res.Tables)
	}
}

func tableNameSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestPlanStringRendering(t *testing.T) {
	p := NewPlan()
	p.MustAddSeeker("s", NewSC([]string{"x"}, 5))
	p.MustAddCombiner("c", NewUnion(5), "s")
	got := p.String()
	if got != "s=SC(k=5); c=Union(s)" {
		t.Fatalf("Plan.String = %q", got)
	}
}
