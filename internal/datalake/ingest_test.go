package datalake

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
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
	err := ParseCSVFiles(context.Background(), paths, func(p ParsedCSV) error {
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
