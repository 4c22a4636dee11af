package core

import (
	"context"
	"testing"

	"blend/internal/storage"
	"blend/internal/table"
)

// semanticLake builds tables with distinct vocabularies: cities versus
// person names, so embedding similarity separates them cleanly.
func semanticLake() []*table.Table {
	cities := table.New("cities", "City", "Country")
	for _, r := range [][2]string{
		{"berlin", "germany"}, {"hamburg", "germany"}, {"munich", "germany"},
		{"cologne", "germany"}, {"frankfurt", "germany"},
	} {
		cities.MustAppendRow(r[0], r[1])
	}
	people := table.New("people", "Name", "Role")
	for _, r := range [][2]string{
		{"alice cooper", "singer"}, {"brian may", "guitarist"},
		{"neil peart", "drummer"}, {"geddy lee", "bassist"},
	} {
		people.MustAppendRow(r[0], r[1])
	}
	return []*table.Table{cities, people}
}

func TestSemanticSeekerFindsSimilarColumn(t *testing.T) {
	e := NewEngine(storage.Build(semanticLake(), 1))
	// Query shares tokens with the cities table but is not identical.
	hits, stats, err := e.RunSeeker(context.Background(), NewSemantic([]string{"berlin", "munich", "dresden"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kind != Semantic {
		t.Fatalf("kind = %v", stats.Kind)
	}
	if len(hits) != 1 || e.Store().TableName(hits[0].TableID) != "cities" {
		t.Fatalf("hits = %v (%v)", hits, e.TableNames(hits))
	}
	if hits[0].Score <= 0 {
		t.Fatalf("similarity score = %v", hits[0].Score)
	}
}

func TestSemanticSeekerEmptyAndZeroInputs(t *testing.T) {
	e := NewEngine(storage.Build(semanticLake(), 1))
	hits, _, err := e.RunSeeker(context.Background(), NewSemantic(nil, 5))
	if err != nil || len(hits) != 0 {
		t.Fatalf("empty input: hits=%v err=%v", hits, err)
	}
	hits, _, err = e.RunSeeker(context.Background(), NewSemantic([]string{"", ""}, 5))
	if err != nil || len(hits) != 0 {
		t.Fatalf("null-only input: hits=%v err=%v", hits, err)
	}
}

// TestSemanticFunnel exercises the fused ANN + posting validation: the
// funnel counters report how many candidate tables the unified index
// corroborates, and validation drops none of them.
func TestSemanticFunnel(t *testing.T) {
	e := NewEngine(storage.Build(semanticLake(), 1))
	// "berlin" and "munich" exist verbatim in the cities table; "dresden"
	// does not exist anywhere. The people table shares no query value.
	q := []string{"berlin", "munich", "dresden"}

	hits, stats, err := e.RunSeeker(context.Background(), NewSemantic(q, 5))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Path != PathANN {
		t.Fatalf("path = %q, want %q", stats.Path, PathANN)
	}
	if stats.Candidates != len(hits) {
		t.Fatalf("candidates = %d, hits = %d — validation must not drop", stats.Candidates, len(hits))
	}
	if stats.Validated != 1 {
		t.Fatalf("validated = %d, want 1 (only cities shares query values)", stats.Validated)
	}

	// NoNativeExec leaves the semantic seeker on its ANN path.
	sql := NewEngine(storage.Build(semanticLake(), 1))
	sql.NoNativeExec = true
	runBoth(t, e, sql, NewSemantic(q, 5), NoRewrite, "semantic")
	runBoth(t, e, sql, NewSemantic(nil, 5), NoRewrite, "semantic, no values")
}

func TestSemanticSeekerIndexReused(t *testing.T) {
	e := NewEngine(storage.Build(semanticLake(), 1))
	v := testView(t, e)
	a := v.semanticIndex()
	b := v.semanticIndex()
	if a != b {
		t.Fatal("semantic index must be built once and reused")
	}
	if a.ann.Len() != 4 { // 2 tables × 2 columns
		t.Fatalf("indexed columns = %d, want 4", a.ann.Len())
	}
}

func TestSemanticSeekerRewriteIsPostFilter(t *testing.T) {
	e := NewEngine(storage.Build(semanticLake(), 1))
	s := NewSemantic([]string{"berlin", "hamburg"}, 5)
	all, _, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no hits")
	}
	// Excluding the best table must remove it without erroring.
	filtered, _, err := runDirect(context.Background(), e, s, ExcludeTables([]int32{all[0].TableID}))
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Contains(all[0].TableID) {
		t.Fatal("exclude rewrite ignored")
	}
	// Including only the best table must keep exactly it.
	only, _, err := runDirect(context.Background(), e, s, IncludeTables([]int32{all[0].TableID}))
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].TableID != all[0].TableID {
		t.Fatalf("include rewrite wrong: %v", only)
	}
}

func TestSemanticSeekerExcludedFromExecutionGroups(t *testing.T) {
	p := NewPlan()
	p.MustAddSeeker("sem", NewSemantic([]string{"berlin"}, 5))
	p.MustAddSeeker("sc", NewSC([]string{"berlin"}, 5))
	p.MustAddSeeker("kw", NewKW([]string{"berlin"}, 5))
	p.MustAddCombiner("i", NewIntersect(5), "sem", "sc", "kw")
	groups := p.findExecutionGroups()
	if len(groups) != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	for _, m := range groups[0].members {
		if m == "sem" {
			t.Fatal("semantic seeker must stay outside execution groups")
		}
	}
	if len(groups[0].members) != 2 {
		t.Fatalf("members = %v", groups[0].members)
	}
}

func TestSemanticInPlanWithExactSeekers(t *testing.T) {
	e := NewEngine(storage.Build(semanticLake(), 1))
	p := NewPlan()
	p.MustAddSeeker("sem", NewSemantic([]string{"berlin", "dresden"}, 5))
	p.MustAddSeeker("sc", NewSC([]string{"germany"}, 5))
	p.MustAddCombiner("both", NewIntersect(5), "sem", "sc")
	res, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || res.Tables[0] != "cities" {
		t.Fatalf("plan result = %v", res.Tables)
	}
}
