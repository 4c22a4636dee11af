package datalake

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"blend/internal/table"
)

// TestParseCSVFilesBoundsReadAhead blocks emit on the first file and, while
// it blocks, deletes every other file. Only files a parser reached before
// the deletion parse successfully, so their count is how far parsing ran
// ahead of emit: at most the read-ahead window past the blocked file.
func TestParseCSVFilesBoundsReadAhead(t *testing.T) {
	window := readAheadPerWorker * runtime.GOMAXPROCS(0)
	files := max(64, 4*(window+1))
	dir := t.TempDir()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("t%02d.csv", i))
		if err := os.WriteFile(paths[i], []byte(fmt.Sprintf("a,b\nx%d,%d\n", i, i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var parsed, emitted int
	err := parseCSVFiles(paths, func(p ParsedCSV) error {
		if emitted == 0 {
			// Give the parsers time to run as far ahead as they may, then
			// pull every later file out from under them.
			time.Sleep(200 * time.Millisecond)
			for _, path := range paths[1:] {
				if err := os.Remove(path); err != nil {
					t.Error(err)
				}
			}
		}
		emitted++
		if p.Err == nil {
			parsed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != files {
		t.Fatalf("emitted %d files, want %d", emitted, files)
	}
	if parsed > window+1 {
		t.Fatalf("%d files parsed while emit blocked on the first, want at most %d (window %d + 1)",
			parsed, window+1, window)
	}
	if parsed < 1 {
		t.Fatal("the first file did not parse")
	}
}

// TestLoadCSVDirDeterministicOrder writes files out of name order, plus a
// non-CSV file, and checks the loader emits only the CSV tables, sorted by
// file name, whatever the parallel parsers finish first.
func TestLoadCSVDirDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.csv", "a.csv", "ignore.txt"} {
		tb := table.New("x", "v")
		tb.MustAppendRow("1")
		if err := tb.WriteCSVFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	err := LoadCSVDir(dir, func(p ParsedCSV) error {
		if p.Err != nil {
			return p.Err
		}
		names = append(names, p.Table.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("loaded %v, want %v", names, want)
	}
}
