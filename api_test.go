package blend

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTypedErrorCodes pins the public error contract of API v2: every
// failure class matches its sentinel under errors.Is.
func TestTypedErrorCodes(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())

	// Empty plan -> ErrBadPlan.
	if _, err := d.Run(context.Background(), NewPlan()); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("empty plan: %v", err)
	}
	// Unknown combiner input -> ErrUnknownNode.
	p := NewPlan()
	p.MustAddSeeker("kw", KW(deps, 5))
	p.MustAddCombiner("out", Union(5), "kw", "ghost")
	if _, err := d.Run(context.Background(), p); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown input: %v", err)
	}
	// Unknown output node -> ErrUnknownNode.
	if err := NewPlan().SetOutput("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown output: %v", err)
	}
	// Corrupt index file -> ErrBadIndex.
	if _, err := OpenIndex(filepath.Join(t.TempDir(), "missing.blend")); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("missing index: %v", err)
	}
	// Bad raw SQL -> ErrBadQuery.
	if _, err := d.Engine().ExecRawSQL(context.Background(), "SELEKT nope"); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad sql: %v", err)
	}
	// Malformed plan JSON -> ErrBadPlan.
	if _, err := ParsePlanJSON(strings.NewReader("{")); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("malformed json: %v", err)
	}
	// Codes are extractable.
	_, err := d.Run(context.Background(), NewPlan())
	if ErrorCodeOf(err) != CodeBadPlan {
		t.Fatalf("ErrorCodeOf = %v", ErrorCodeOf(err))
	}
}

// TestSeekCanceled pins the acceptance criterion: errors.Is(err,
// blend.ErrCanceled) for a canceled context in the library API.
func TestSeekCanceled(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Seek(ctx, SC(deps, 5)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled seek: %v", err)
	}
}

// TestWithDeadline verifies the deadline option surfaces the typed code.
func TestWithDeadline(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	p := NewPlan()
	p.MustAddSeeker("kw", KW(deps, 5))
	// An already-expired deadline must fail fast with the typed code.
	_, err := d.Run(context.Background(), p, WithDeadline(time.Nanosecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: %v", err)
	}
	// A generous deadline must not interfere.
	res, err := d.Run(context.Background(), p, WithDeadline(time.Minute))
	if err != nil || len(res.Tables) == 0 {
		t.Fatalf("live deadline run: %v %v", res, err)
	}
}

// TestWithExplain verifies executed SQL is captured per seeker node,
// rewrites included.
func TestWithExplain(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	p := NegativeExamplesPlan(
		[][]string{{"HR", "Firenze"}},
		[][]string{{"IT", "Tom Riddle"}}, 10)
	res, err := d.Run(context.Background(), p, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SQLByNode) != 2 {
		t.Fatalf("SQLByNode = %v", res.SQLByNode)
	}
	if sql := res.SQLByNode["P_examples"]; !strings.Contains(sql, "AllTables") {
		t.Fatalf("P_examples SQL = %q", sql)
	}
	// The optimizer rewrites the minuend with a NOT IN predicate; the
	// recorded SQL must show it.
	if sql := res.SQLByNode["P_examples"]; !strings.Contains(sql, "NOT IN") {
		t.Fatalf("rewrite not captured: %q", sql)
	}
	// Without the option nothing is recorded.
	res, err = d.Run(context.Background(), p)
	if err != nil || res.SQLByNode != nil {
		t.Fatalf("explain leaked: %v %v", res.SQLByNode, err)
	}
}

// TestOptionsCompose verifies the functional options produce the same
// hits as the plain run.
func TestOptionsCompose(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables(), WithShards(2))
	p := NegativeExamplesPlan(
		[][]string{{"HR", "Firenze"}},
		[][]string{{"IT", "Tom Riddle"}}, 10)
	p.MustAddSeeker("dep", SC(deps, 10))
	p.MustAddCombiner("intersect", Intersect(10), "exclude", "dep")
	ref, err := d.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]RunOption{
		{WithMaxWorkers(4)},
		{WithMaxWorkers(0), WithExplain()},
		{WithDeadline(time.Minute), WithMaxWorkers(2)},
	} {
		res, err := d.Run(context.Background(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Tables, res.Tables) {
			t.Fatalf("options changed the answer: %v vs %v", res.Tables, ref.Tables)
		}
	}
	// WithoutOptimizer is set-equivalent, not order-equivalent.
	noOpt, err := d.Run(context.Background(), p, WithoutOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tableSet(ref.Tables), tableSet(noOpt.Tables)) {
		t.Fatalf("B-NO differs as a set: %v vs %v", noOpt.Tables, ref.Tables)
	}
}

// TestConcurrentAddTableAndQueries is the race test for the engine-level
// RWMutex: incremental indexing must be safe concurrently with queries
// (run with -race in CI).
func TestConcurrentAddTableAndQueries(t *testing.T) {
	d := IndexTables(ColumnStore, fig1Tables())
	const writers, readers, rounds = 2, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				nt := NewTable(fmt.Sprintf("W%d_%d", w, i), "Team", "Head")
				nt.MustAppendRow("Quidditch"+strconv.Itoa(i), "Head"+strconv.Itoa(w))
				if err := d.AddTable(nt); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if r%2 == 0 {
					if _, err := d.Seek(context.Background(), KW(deps, 5)); err != nil {
						errs <- err
						return
					}
					continue
				}
				p := NewPlan()
				p.MustAddSeeker("sc", SC(deps, 5))
				p.MustAddSeeker("kw", KW([]string{"Firenze"}, 5))
				p.MustAddCombiner("u", Union(5), "sc", "kw")
				if _, err := d.Run(context.Background(), p, WithMaxWorkers(2)); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.NumTables(); got != 3+writers*rounds {
		t.Fatalf("tables after concurrent adds = %d, want %d", got, 3+writers*rounds)
	}
	// Everything added concurrently must now be discoverable.
	hits, err := d.Seek(context.Background(), KW([]string{"Quidditch0"}, writers))
	if err != nil || len(hits) != writers {
		t.Fatalf("added tables not discoverable: %v %v", hits, err)
	}
}
