package blend

// Golden end-to-end regression trace: a small committed CSV corpus
// (testdata/golden/lake) is indexed through the public API and queried
// with one fixed input per seeker kind — SC, KW, MC, C, Semantic — plus a
// union search plan. The named, scored results must match the committed
// trace in testdata/golden/expected.json byte-for-byte, on the native
// executor and on the SQL fallback alike, at one shard and at four, so
// any future executor change that shifts results (scores, order,
// tie-breaks) diffs against a known-good baseline instead of only against
// the other path. (The
// semantic trace is deterministic because the HNSW level generator is
// seeded and the embedder is hash-based.)
//
// TestGoldenTracePaths additionally pins the execution-path attribution
// for every kind on both engines, so a silent fall-through to the
// interpreter fails the build rather than just slowing it down.
//
// Regenerate after an intentional semantic change with:
//
//	go test -run TestGoldenTrace -update-golden .

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"blend/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/expected.json from the current engine output")

type goldenHit struct {
	Table string  `json:"table"`
	Score float64 `json:"score"`
}

// goldenTrace is one full run of the fixed query set, keyed by seeker
// kind (plus the union plan).
type goldenTrace map[string][]goldenHit

func goldenQueries(t *testing.T, d *Discovery) goldenTrace {
	t.Helper()
	ctx := context.Background()
	trace := goldenTrace{}
	seek := func(key string, s Seeker) {
		hits, err := d.Seek(ctx, s)
		if err != nil {
			t.Fatalf("%s seek: %v", key, err)
		}
		named := []goldenHit{}
		for i, name := range d.TableNames(hits) {
			named = append(named, goldenHit{Table: name, Score: hits[i].Score})
		}
		trace[key] = named
	}
	seek("sc", SC([]string{"HR", "IT", "Sales", "Finance", "Marketing"}, 5))
	seek("kw", KW([]string{"HR", "Firenze", "2024"}, 5))
	seek("mc", MC([][]string{{"HR", "Anna Rossi"}, {"IT", "Jonas Weber"}}, 5))
	seek("c", Correlation(
		[]string{"HR", "IT", "Sales", "Finance", "Marketing"},
		[]float64{33, 92, 80, 31, 28}, 5))
	seek("semantic", Semantic([]string{"Firenze", "Berlin", "Madrid"}, 3))

	// Union search: a two-column probe table through the KW fan-out +
	// Counter plan.
	probe := NewTable("probe", "Team", "City")
	probe.MustAppendRow("HR", "Boston")
	probe.MustAppendRow("Sales", "Madrid")
	res, err := d.Run(ctx, UnionSearchPlan(probe, 3, 5))
	if err != nil {
		t.Fatalf("union run: %v", err)
	}
	named := []goldenHit{}
	for i, name := range res.Tables {
		named = append(named, goldenHit{Table: name, Score: res.Output[i].Score})
	}
	trace["union"] = named
	return trace
}

func TestGoldenTrace(t *testing.T) {
	lakeDir := filepath.Join("testdata", "golden", "lake")
	goldenPath := filepath.Join("testdata", "golden", "expected.json")

	d, err := IndexCSVDir(ColumnStore, lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	trace := goldenQueries(t, d)

	// The SQL fallback, and both executors on a 4-shard index, must
	// produce the identical trace: the golden file pins every path at once.
	for _, c := range []struct {
		label string
		opts  []IndexOption
	}{
		{"sql", []IndexOption{WithoutNativeExec()}},
		{"native/4 shards", []IndexOption{WithShards(4)}},
		{"sql/4 shards", []IndexOption{WithShards(4), WithoutNativeExec()}},
	} {
		dc, err := IndexCSVDir(ColumnStore, lakeDir, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenQueries(t, dc); !reflect.DeepEqual(trace, got) {
			t.Fatalf("%s trace diverges from the native one:\n native: %+v\n %s: %+v", c.label, trace, c.label, got)
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(trace); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (run with -update-golden to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace diverged from %s\n got: %s\nwant: %s\n(re-run with -update-golden if the change is intentional)",
			goldenPath, buf.Bytes(), want)
	}

	// Sanity-pin the headline expectations so a wholesale regeneration of
	// the golden file cannot silently encode nonsense: the MC probe rows
	// live in teams_eu and org_2024, and the correlation probe must find
	// the payroll/budget tables.
	mustContain := func(key, table string) {
		for _, h := range trace[key] {
			if h.Table == table {
				return
			}
		}
		t.Fatalf("%s trace %v misses table %q", key, trace[key], table)
	}
	mustContain("mc", "teams_eu")
	mustContain("mc", "org_2024")
	mustContain("c", "payroll")
	mustContain("sc", "headcount")
	mustContain("union", "teams_us")
	mustContain("semantic", "teams_eu")
}

// TestGoldenTracePaths pins the execution-path attribution of the golden
// query set: on the default engine every relational seeker kind runs on
// the native executor and the semantic seeker on the ANN index; under
// WithoutNativeExec the relational kinds report the minisql interpreter,
// while semantic keeps its ANN path (it has no SQL form to fall back to).
// A silent fall-through to the interpreter therefore fails the build
// rather than just slowing it down.
func TestGoldenTracePaths(t *testing.T) {
	lakeDir := filepath.Join("testdata", "golden", "lake")
	seekers := map[string]Seeker{
		"sc": SC([]string{"HR", "IT", "Sales", "Finance", "Marketing"}, 5),
		"kw": KW([]string{"HR", "Firenze", "2024"}, 5),
		"mc": MC([][]string{{"HR", "Anna Rossi"}, {"IT", "Jonas Weber"}}, 5),
		"c": Correlation(
			[]string{"HR", "IT", "Sales", "Finance", "Marketing"},
			[]float64{33, 92, 80, 31, 28}, 5),
		"semantic": Semantic([]string{"Firenze", "Berlin", "Madrid"}, 3),
	}
	fastPath := map[string]string{
		"sc": core.PathNative, "kw": core.PathNative, "mc": core.PathNative,
		"c": core.PathNative, "semantic": core.PathANN,
	}
	slowPath := map[string]string{
		"sc": core.PathSQL, "kw": core.PathSQL, "mc": core.PathSQL,
		"c": core.PathSQL, "semantic": core.PathANN,
	}

	ctx := context.Background()
	check := func(d *Discovery, want map[string]string, label string) {
		t.Helper()
		for key, s := range seekers {
			_, stats, err := d.Engine().RunSeeker(ctx, s)
			if err != nil {
				t.Fatalf("%s %s: %v", label, key, err)
			}
			if stats.Path != want[key] {
				t.Fatalf("%s %s: path = %q, want %q", label, key, stats.Path, want[key])
			}
		}
	}

	d, err := IndexCSVDir(ColumnStore, lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	check(d, fastPath, "native engine")

	dSQL, err := IndexCSVDir(ColumnStore, lakeDir, WithoutNativeExec())
	if err != nil {
		t.Fatal(err)
	}
	check(dSQL, slowPath, "sql engine")
}
