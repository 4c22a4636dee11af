package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// These tests run each experiment at small scale and assert the *shape*
// invariants EXPERIMENTS.md claims — the relationships that must hold on
// any machine, not the absolute numbers.

func lines(t *testing.T, r *Report) []string {
	t.Helper()
	if r == nil || len(r.Lines()) == 0 {
		t.Fatal("empty report")
	}
	return r.Lines()
}

func TestRegistryMatchesPaperOrder(t *testing.T) {
	ids := []string{"lakes", "complex", "optimizer", "mcprecision", "sc_runtime",
		"lakebench", "unionquality", "union_runtime", "correlation", "h_sweep",
		"indexsize", "userstudy", "sharding"}
	all := All()
	if len(all) != len(ids) {
		t.Fatalf("got %d experiments, want %d", len(all), len(ids))
	}
	for i, e := range all {
		if e.ID != ids[i] {
			t.Fatalf("experiment %d = %q, want %q", i, e.ID, ids[i])
		}
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
	}
	if ByID("lakes") == nil || ByID("nope") != nil {
		t.Fatal("ByID lookup wrong")
	}
}

func TestLakesCoversAllEleven(t *testing.T) {
	ls := lines(t, RunLakes(context.Background(), Small))
	if len(ls) != 12 { // header + 11 lakes
		t.Fatalf("lake rows = %d", len(ls))
	}
	body := strings.Join(ls, "\n")
	for _, name := range []string{"DWTC", "Gittables", "WDC", "TUS Large", "SANTOS", "NYC open data"} {
		if !strings.Contains(body, name) {
			t.Fatalf("missing lake %s", name)
		}
	}
}

func TestComplexTasksShape(t *testing.T) {
	// The structured invariants are easier to assert on the task results
	// than on formatted lines.
	neg := runNegativeTask(context.Background(), Small, 4)
	imp := runImputationTask(context.Background(), Small, 4)
	multi := runMultiTask(context.Background(), Small, 2)

	// Query rewriting helps the rewritable tasks: the optimizer rewrites at
	// least one seeker, and the rewritten plan does no more work than B-NO.
	// The work is the exact row count of the seekers' SQL (the timings stay
	// in the report only — they depend on the machine).
	for _, task := range []struct {
		name string
		res  taskResult
	}{{"negative", neg}, {"imputation", imp}} {
		w, bno := task.res.blendWork, task.res.bnoWork
		if w.rewritten == 0 || bno.rewritten != 0 {
			t.Errorf("%s: %d seekers rewritten with the optimizer, %d without; want > 0 and 0",
				task.name, w.rewritten, bno.rewritten)
		}
		if w.rows > bno.rows {
			t.Errorf("%s: BLEND produced %d SQL rows, more than B-NO's %d", task.name, w.rows, bno.rows)
		}
	}
	// Union-combined sub-plans gain nothing (paper: equal runtimes): no
	// seeker is rewritten and the work is identical.
	if multi.blendWork != multi.bnoWork || multi.blendWork.rewritten != 0 {
		t.Errorf("multi-objective: BLEND work %+v vs B-NO %+v, want equal with no rewrite",
			multi.blendWork, multi.bnoWork)
	}
	// LOC and system counts match the paper's table.
	if neg.locBlend != 5 || imp.locBlend != 5 {
		t.Error("plan LOC wrong")
	}
	if neg.locBase <= neg.locBlend || imp.locBase <= imp.locBlend {
		t.Error("baselines must need more code")
	}
	if multi.systems != 3 || imp.systems != 2 {
		t.Error("system counts wrong")
	}
}

func TestOptimizerShape(t *testing.T) {
	ls := lines(t, RunOptimizer(context.Background(), Small))
	if len(ls) != 5 { // header + 4 seeker categories
		t.Fatalf("optimizer rows = %d: %v", len(ls), ls)
	}
	for _, cat := range []string{"Mixed", "SC", "MC", "C"} {
		found := false
		for _, l := range ls {
			if strings.HasPrefix(l, cat+" ") {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing category %s", cat)
		}
	}
}

func TestMCPrecisionShape(t *testing.T) {
	ls := lines(t, RunMCPrecision(context.Background(), Small))
	// Parse TP/FP columns: BLEND's FP must not exceed MATE's on each lake
	// (the SQL join prunes before XASH).
	var blendFP, mateFP []float64
	for _, l := range ls[1:] {
		f := strings.Fields(l)
		// Locate the system token; lake names may contain spaces.
		sys := -1
		for i, tok := range f {
			if tok == "BLEND" || tok == "MATE" {
				sys = i
				break
			}
		}
		if sys < 0 || sys+2 >= len(f) {
			continue
		}
		var fp float64
		if _, err := sscanF(f[sys+2], &fp); err != nil {
			continue
		}
		if f[sys] == "BLEND" {
			blendFP = append(blendFP, fp)
		} else {
			mateFP = append(mateFP, fp)
		}
	}
	if len(blendFP) != 2 || len(mateFP) != 2 {
		t.Fatalf("parse failure: %v", ls)
	}
	for i := range blendFP {
		if blendFP[i] > mateFP[i] {
			t.Errorf("lake %d: BLEND FP %v exceeds MATE FP %v", i, blendFP[i], mateFP[i])
		}
	}
}

func TestUnionQualityShape(t *testing.T) {
	ls := lines(t, RunUnionQuality(context.Background(), Small))
	// SANTOS Large must be excluded (no ground truth in the paper).
	for _, l := range ls {
		if strings.Contains(l, "SANTOS Large") {
			t.Fatal("SANTOS Large must not appear in the quality table")
		}
	}
	// TUS rows must include k=50 and k=100.
	body := strings.Join(ls, "\n")
	if !strings.Contains(body, "TUS             100") && !strings.Contains(body, "TUS            100") {
		t.Fatalf("missing k=100 TUS row:\n%s", body)
	}
}

func TestCorrelationShape(t *testing.T) {
	ls := lines(t, RunCorrelation(context.Background(), Small))
	// The sketch baseline must collapse to 0% on the numeric-key lake and
	// be competitive on the categorical one.
	var allBaseline, catBaseline string
	for _, l := range ls {
		if strings.Contains(l, "NYC (All)") && strings.Contains(l, "Baseline") {
			allBaseline = l
		}
		if strings.Contains(l, "NYC (Cat.)") && strings.Contains(l, "Baseline") {
			catBaseline = l
		}
	}
	if !strings.Contains(allBaseline, " 0.0%") {
		t.Errorf("numeric-key baseline should collapse: %q", allBaseline)
	}
	if strings.Contains(catBaseline, "|    0.0%") {
		t.Errorf("categorical baseline should work: %q", catBaseline)
	}
}

func TestIndexSizeShape(t *testing.T) {
	ls := lines(t, RunIndexSize(context.Background(), Small))
	// The TOTAL row must show the SOTA combination larger than BLEND.
	var total string
	for _, l := range ls {
		if strings.HasPrefix(l, "TOTAL") {
			total = l
		}
	}
	if total == "" {
		t.Fatal("no TOTAL row")
	}
	f := strings.Fields(total)
	var blendB, sotaB float64
	if _, err := sscanF(f[1], &blendB); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanF(f[2], &sotaB); err != nil {
		t.Fatal(err)
	}
	if sotaB <= blendB {
		t.Errorf("combined SOTA (%v) must exceed BLEND (%v)", sotaB, blendB)
	}
}

func TestSCRuntimeShape(t *testing.T) {
	ls := lines(t, RunSCRuntime(context.Background(), Small))
	if len(ls) != 10 { // header + 3 lakes × 3 sizes
		t.Fatalf("rows = %d", len(ls))
	}
}

func TestLakeBenchShape(t *testing.T) {
	ls := lines(t, RunLakeBench(context.Background(), Small))
	body := strings.Join(ls, "\n")
	// BLEND and JOSIE return identical exact-overlap results: both should
	// report the same effectiveness columns.
	if !strings.Contains(body, "Runtime") || !strings.Contains(body, "Effectiveness") {
		t.Fatalf("missing sections:\n%s", body)
	}
	for _, l := range ls {
		f := strings.Fields(l)
		// Effectiveness rows: k | P_B P_B | P_J R_J | P_D R_D
		if len(f) == 10 && f[1] == "|" {
			if f[2] != f[5] || f[3] != f[6] {
				t.Errorf("BLEND and JOSIE effectiveness must be identical: %q", l)
			}
		}
	}
}

func TestUnionRuntimeShape(t *testing.T) {
	ls := lines(t, RunUnionRuntime(context.Background(), Small))
	if len(ls) != 5 { // header + 4 lakes
		t.Fatalf("rows = %d", len(ls))
	}
}

func TestUserStudyReport(t *testing.T) {
	ls := lines(t, RunUserStudy(context.Background(), Small))
	body := strings.Join(ls, "\n")
	for _, want := range []string{"Participants", "Q7", "BLEND"} {
		if !strings.Contains(body, want) {
			t.Fatalf("missing %q in user study output", want)
		}
	}
}

// sscanF parses a float from a token like "1234", "95.42%", or "1.45x".
func sscanF(tok string, out *float64) (int, error) {
	tok = strings.TrimSuffix(tok, "%")
	tok = strings.TrimSuffix(tok, "x")
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, err
	}
	*out = f
	return 1, nil
}

func TestHSweepShape(t *testing.T) {
	ls := lines(t, RunHSweep(context.Background(), Small))
	if len(ls) < 7 { // header + 5 h values + note
		t.Fatalf("rows = %d", len(ls))
	}
	// BLEND pays zero re-index cost at every h.
	for _, l := range ls[1:6] {
		if !strings.Contains(l, "0ms") {
			t.Fatalf("BLEND should never re-index: %q", l)
		}
	}
}

func TestShardingExperimentShape(t *testing.T) {
	body := strings.Join(lines(t, RunSharding(context.Background(), Small)), "\n")
	if strings.Contains(body, "identical results: false") {
		t.Fatalf("sharded or scheduled execution diverged:\n%s", body)
	}
	for _, want := range []string{"identical results: true", "peak concurrency"} {
		if !strings.Contains(body, want) {
			t.Fatalf("sharding report missing %q:\n%s", want, body)
		}
	}
}
