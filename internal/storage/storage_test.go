package storage

import (
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"blend/internal/table"
	"blend/internal/xash"
)

// lakeFixture builds the running example of the paper's Fig. 1.
func lakeFixture() []*table.Table {
	s := table.New("S", "Dep", "Head")
	s.MustAppendRow("HR", "Firenze")
	s.MustAppendRow("Marketing", "")
	s.MustAppendRow("Finance", "")

	t1 := table.New("T1", "Team", "Size")
	t1.MustAppendRow("Finance", "31")
	t1.MustAppendRow("Marketing", "28")
	t1.MustAppendRow("HR", "33")
	t1.MustAppendRow("IT", "92")

	t2 := table.New("T2", "Lead", "Year", "Team")
	t2.MustAppendRow("Tom Riddle", "2022", "IT")
	t2.MustAppendRow("Firenze", "2022", "HR")

	t3 := table.New("T3", "Lead", "Year", "Team")
	t3.MustAppendRow("Ronald Weasley", "2024", "IT")
	t3.MustAppendRow("Firenze", "2024", "HR")

	for _, t := range []*table.Table{s, t1, t2, t3} {
		t.InferKinds()
	}
	return []*table.Table{s, t1, t2, t3}
}

func TestBuildBasics(t *testing.T) {
	s := Build(lakeFixture(), 1)
	if s.NumTables() != 4 {
		t.Fatalf("NumTables = %d", s.NumTables())
	}
	// S has 4 non-null cells (2 nulls skipped), T1 8, T2 6, T3 6.
	if got := s.NumEntries(); got != 24 {
		t.Fatalf("NumEntries = %d, want 24", got)
	}
	if s.TableName(2) != "T2" {
		t.Fatalf("TableName(2) = %q", s.TableName(2))
	}
	if s.TableIDByName("T3") != 3 {
		t.Fatal("TableIDByName wrong")
	}
	if s.TableIDByName("nope") != -1 {
		t.Fatal("missing table should be -1")
	}
}

func TestPostings(t *testing.T) {
	s := Build(lakeFixture(), 1)
	p := positions(t, s, "Firenze")
	if len(p) != 3 { // S, T2, T3
		t.Fatalf("Firenze postings = %d, want 3", len(p))
	}
	tables := map[int32]bool{}
	for _, e := range p {
		tables[s.TableID(e)] = true
	}
	if !tables[0] || !tables[2] || !tables[3] {
		t.Fatalf("Firenze found in wrong tables: %v", tables)
	}
	if p := positions(t, s, "nonexistent"); p != nil {
		t.Fatalf("missing value has postings %v", p)
	}
	if s.Frequency("HR") != 4 { // S, T1, T2, T3
		t.Fatalf("Frequency(HR) = %d", s.Frequency("HR"))
	}
}

func TestAvgFrequency(t *testing.T) {
	s := Build(lakeFixture(), 1)
	if got := s.AvgFrequency(nil); got != 0 {
		t.Fatal("empty input should be 0")
	}
	got := s.AvgFrequency([]string{"Firenze", "nonexistent"})
	if got != 1.5 {
		t.Fatalf("AvgFrequency = %v, want 1.5", got)
	}
}

func TestQuadrantBits(t *testing.T) {
	s := Build(lakeFixture(), 1)
	// T1.Size: 31,28,33,92 → mean 46; only 92 is ≥ mean.
	start, end := s.TableEntries(1)
	ones, zeros, nulls := 0, 0, 0
	for i := start; i < end; i++ {
		switch s.Quadrant(i) {
		case 1:
			ones++
		case 0:
			zeros++
		default:
			nulls++
		}
	}
	// T1 contributes 4 numeric cells (1 one, 3 zeros) and 4 string cells.
	if ones != 1 || zeros != 3 || nulls != 4 {
		t.Fatalf("quadrants ones=%d zeros=%d nulls=%d", ones, zeros, nulls)
	}
}

func TestSuperKeyContainsCellHash(t *testing.T) {
	s := Build(lakeFixture(), 1)
	for i := int32(0); i < int32(s.NumEntries()); i++ {
		tid, rid := s.TableID(i), s.RowID(i)
		row := s.ReconstructRow(tid, rid)
		key := s.SuperKey(i)
		for _, cell := range row {
			if cell == "" {
				continue
			}
			if !key.Contains(xash.Hash(cell)) {
				t.Fatalf("super key of table %d row %d misses cell %q", tid, rid, cell)
			}
		}
	}
}

func TestReconstructRow(t *testing.T) {
	tables := lakeFixture()
	s := Build(tables, 1)
	got := s.ReconstructRow(2, 0)
	want := []string{"Tom Riddle", "2022", "IT"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row = %v, want %v", got, want)
	}
	// Row with nulls.
	got = s.ReconstructRow(0, 1)
	want = []string{"Marketing", ""}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("row = %v, want %v", got, want)
	}
}

func TestReconstructTable(t *testing.T) {
	tables := lakeFixture()
	s := Build(tables, 1)
	for tid, orig := range tables {
		got := s.ReconstructTable(int32(tid))
		if got.Name != orig.Name {
			t.Fatalf("name %q != %q", got.Name, orig.Name)
		}
		if !reflect.DeepEqual(got.Rows, orig.Rows) {
			t.Fatalf("table %s rows differ:\n%v\n%v", orig.Name, got.Rows, orig.Rows)
		}
	}
}

func TestPersistRoundTrip(t *testing.T) {
	orig := Build(lakeFixture(), 1)
	back := reopen(t, orig)
	if back.NumEntries() != orig.NumEntries() || back.NumTables() != orig.NumTables() {
		t.Fatal("counts differ after round trip")
	}
	for i := int32(0); i < int32(orig.NumEntries()); i++ {
		if back.Value(i) != orig.Value(i) || back.Quadrant(i) != orig.Quadrant(i) ||
			back.SuperKey(i) != orig.SuperKey(i) || back.TableID(i) != orig.TableID(i) {
			t.Fatalf("entry %d differs after round trip", i)
		}
	}
	// Derived indexes must be rebuilt identically.
	if !reflect.DeepEqual(positions(t, back, "Firenze"), positions(t, orig, "Firenze")) {
		t.Fatal("postings differ after round trip")
	}
	for tid := int32(0); tid < int32(orig.NumTables()); tid++ {
		s1, e1 := orig.TableEntries(tid)
		s2, e2 := back.TableEntries(tid)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("table range %d differs", tid)
		}
	}
}

func TestPersistFiles(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/idx.blend"
	orig := Build(lakeFixture(), 1)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEntries() != orig.NumEntries() {
		t.Fatal("file round trip lost entries")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.blend")
	if err := loadBytes(t, path, []byte("not an index")); err == nil {
		t.Fatal("want error for bad magic")
	}
	if err := loadBytes(t, path, nil); err == nil {
		t.Fatal("want error for empty input")
	}
}

func TestSizeBytesPositive(t *testing.T) {
	s := Build(lakeFixture(), 1)
	if s.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

// TestPersistQuickRoundTrip property-tests persistence over random tables.
func TestPersistQuickRoundTrip(t *testing.T) {
	f := func(cells [][2]string) bool {
		tb := table.New("q", "a", "b")
		for _, c := range cells {
			tb.MustAppendRow(c[0], c[1])
		}
		tb.InferKinds()
		orig := Build([]*table.Table{tb}, 1)
		back := reopen(t, orig)
		if back.NumEntries() != orig.NumEntries() {
			return false
		}
		for i := int32(0); i < int32(orig.NumEntries()); i++ {
			if back.Value(i) != orig.Value(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddTableIncremental(t *testing.T) {
	orig := Build(lakeFixture(), 1)
	before := orig.NumTables()
	nt := table.New("T4", "Team", "Budget")
	nt.MustAppendRow("Legal", "12")
	nt.MustAppendRow("HR", "44")
	nt.InferKinds()
	s, ids := orig.CloneAddTablesBatch([]*table.Table{nt})
	tid := ids[0]
	if int(tid) != before {
		t.Fatalf("new table id = %d, want %d", tid, before)
	}
	if s.NumTables() != before+1 || orig.NumTables() != before {
		t.Fatalf("table counts: derived %d, parent %d", s.NumTables(), orig.NumTables())
	}
	// New value visible through the derived index's inverted index only.
	if len(positions(t, s, "Legal")) != 1 || orig.Frequency("Legal") != 0 {
		t.Fatalf("Legal postings = %d, parent frequency %d", len(positions(t, s, "Legal")), orig.Frequency("Legal"))
	}
	// Existing value frequency grew.
	if s.Frequency("HR") != 5 {
		t.Fatalf("HR frequency = %d, want 5", s.Frequency("HR"))
	}
	// Reconstruction works for old and new tables.
	if got := s.ReconstructRow(tid, 0); got[0] != "Legal" || got[1] != "12" {
		t.Fatalf("new row = %v", got)
	}
	if got := s.ReconstructRow(2, 0); got[0] != "Tom Riddle" {
		t.Fatalf("old row corrupted: %v", got)
	}
	// Quadrant bits computed for the numeric column (mean 28: only 44 is above).
	start, end := s.TableEntries(tid)
	ones := 0
	for i := start; i < end; i++ {
		if s.Quadrant(i) == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("quadrant ones = %d, want 1", ones)
	}
}

func TestAddTableThenPersist(t *testing.T) {
	nt := table.New("T4", "A")
	nt.MustAppendRow("zz-new-value")
	s, _ := Build(lakeFixture(), 1).CloneAddTablesBatch([]*table.Table{nt})
	back := reopen(t, s)
	if back.Frequency("zz-new-value") != 1 {
		t.Fatal("incrementally added value lost on round trip")
	}
}

func TestComputeStats(t *testing.T) {
	s := Build(lakeFixture(), 1)
	st := s.ComputeStats()
	if st.Tables != 4 || st.Entries != 24 {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.DistinctValues != s.NumDistinctValues() {
		t.Fatal("distinct count mismatch")
	}
	if st.NumericCells == 0 {
		t.Fatal("numeric cells missing")
	}
	if st.AvgPostingLength <= 0 || st.MaxPostingLength < 4 { // "HR" appears 4×
		t.Fatalf("posting stats: %+v", st)
	}
	if st.AvgColumnsPerTbl <= 0 || st.AvgRowsPerTable <= 0 {
		t.Fatal("table shape averages missing")
	}
	if st.EstimatedBytes != s.SizeBytes() {
		t.Fatal("size mismatch")
	}
}
