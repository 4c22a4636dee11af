package table

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestNewAndAppend(t *testing.T) {
	tb := New("t", "a", "b")
	if tb.NumCols() != 2 || tb.NumRows() != 0 {
		t.Fatalf("got %d cols %d rows", tb.NumCols(), tb.NumRows())
	}
	if err := tb.AppendRow("1", "2"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow("only-one"); err == nil {
		t.Fatal("want width-mismatch error")
	}
	if got := tb.Cell(0, 1); got != "2" {
		t.Fatalf("Cell = %q", got)
	}
}

func TestMustAppendRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New("t", "a").MustAppendRow("1", "2")
}

func TestAppendRowCopiesInput(t *testing.T) {
	tb := New("t", "a")
	cells := []string{"x"}
	tb.MustAppendRow(cells...)
	cells[0] = "mutated"
	if tb.Cell(0, 0) != "x" {
		t.Fatal("AppendRow must copy its input")
	}
}

func TestIsNull(t *testing.T) {
	tb := New("t", "a", "b")
	tb.MustAppendRow("", "x")
	if !tb.IsNull(0, 0) || tb.IsNull(0, 1) {
		t.Fatal("null detection wrong")
	}
}

func TestColumnIndex(t *testing.T) {
	tb := New("t", "a", "b")
	if tb.ColumnIndex("b") != 1 {
		t.Fatal("b should be 1")
	}
	if tb.ColumnIndex("zz") != -1 {
		t.Fatal("missing column should be -1")
	}
}

func TestColumnValuesSkipsNulls(t *testing.T) {
	tb := New("t", "a")
	tb.MustAppendRow("x")
	tb.MustAppendRow("")
	tb.MustAppendRow("y")
	got := tb.ColumnValues(0)
	if !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("got %v", got)
	}
}

func TestDistinctColumnValues(t *testing.T) {
	tb := New("t", "a")
	for _, v := range []string{"x", "y", "x", "", "z", "y"} {
		tb.MustAppendRow(v)
	}
	got := tb.DistinctColumnValues(0)
	if !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Fatalf("got %v", got)
	}
}

func TestNumericColumnValues(t *testing.T) {
	tb := New("t", "n")
	for _, v := range []string{"1.5", "oops", "", " 2 ", "-3"} {
		tb.MustAppendRow(v)
	}
	vals, rows := tb.NumericColumnValues(0)
	if !reflect.DeepEqual(vals, []float64{1.5, 2, -3}) {
		t.Fatalf("vals = %v", vals)
	}
	if !reflect.DeepEqual(rows, []int{0, 3, 4}) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestInferKinds(t *testing.T) {
	tb := New("t", "num", "str", "mostlyNum", "empty")
	tb.MustAppendRow("1", "a", "1", "")
	tb.MustAppendRow("2.5", "b", "2", "")
	tb.MustAppendRow("-3", "c3", "3", "")
	tb.MustAppendRow("4e2", "d", "4", "")
	tb.MustAppendRow("5", "e", "5", "")
	tb.MustAppendRow("6", "f", "6", "")
	tb.MustAppendRow("7", "g", "7", "")
	tb.MustAppendRow("8", "h", "8", "")
	tb.MustAppendRow("9", "i", "9", "")
	tb.MustAppendRow("10", "j", "not-a-number", "")
	tb.InferKinds()
	if tb.Columns[0].Kind != KindNumeric {
		t.Error("num should be numeric")
	}
	if tb.Columns[1].Kind != KindString {
		t.Error("str should be string")
	}
	if tb.Columns[2].Kind != KindNumeric {
		t.Error("mostlyNum (9/10 numeric) should be numeric")
	}
	if tb.Columns[3].Kind != KindString {
		t.Error("all-null column should stay string")
	}
}

func TestProject(t *testing.T) {
	tb := New("t", "a", "b", "c")
	tb.MustAppendRow("1", "2", "3")
	p, err := tb.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Columns[0].Name != "c" || p.Cell(0, 0) != "3" || p.Cell(0, 1) != "1" {
		t.Fatalf("bad projection: %+v", p)
	}
	if _, err := tb.Project("nope"); err == nil {
		t.Fatal("want error for unknown column")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := New("t", "a")
	tb.MustAppendRow("x")
	cl := tb.Clone()
	cl.Rows[0][0] = "changed"
	cl.Columns[0].Name = "renamed"
	if tb.Cell(0, 0) != "x" || tb.Columns[0].Name != "a" {
		t.Fatal("Clone must not share storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := New("rt", "name", "score")
	tb.MustAppendRow("alice", "10")
	tb.MustAppendRow("bob, jr.", "")
	tb.MustAppendRow("quote\"d", "3")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, tb.Rows) {
		t.Fatalf("round trip mismatch:\n%v\n%v", back.Rows, tb.Rows)
	}
	if back.Columns[1].Kind != KindNumeric {
		t.Error("score should be inferred numeric")
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	in := "a,b,c\n1,2\nx,y,z,extra\n"
	tb, err := ReadCSV("r", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Cell(0, 2) != "" {
		t.Error("short row should be null-padded")
	}
	if tb.Cell(1, 2) != "z" {
		t.Error("long row should be truncated to header width")
	}
}

func TestStringSummary(t *testing.T) {
	tb := New("t", "a", "b")
	tb.MustAppendRow("1", "2")
	if got := tb.String(); got != "t(a, b) [1 rows]" {
		t.Fatalf("String = %q", got)
	}
}

func TestFormat(t *testing.T) {
	tb := New("demo", "Name", "Amount")
	tb.MustAppendRow("alice", "10")
	tb.MustAppendRow("", "20")
	tb.MustAppendRow("a-very-long-cell-value-that-overflows", "30")
	tb.MustAppendRow("dora", "40")
	var buf bytes.Buffer
	if err := tb.Format(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "Name", "Amount", "alice", "∅", "…", "1 more rows"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "dora") {
		t.Fatal("maxRows not respected")
	}
	// Unlimited rows.
	buf.Reset()
	if err := tb.Format(&buf, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dora") {
		t.Fatal("negative maxRows should print everything")
	}
}
