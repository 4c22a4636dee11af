package datalake

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"blend/internal/berr"
	"blend/internal/table"
)

// The one CSV-directory loader: a directory walker feeding bounded parse
// workers feeding, downstream, whatever the caller does with each table
// (collect it for a fresh build, or batch it into the engine's inserts).
// The walker and parsers live here (next to the synthetic lake generators)
// because they are lake-shaping concerns; the commit path — batching,
// duplicate checks, cache invalidation — lives with the engine.

// LoadCSVDir walks every *.csv file under dir, subdirectories included,
// and parses them on GOMAXPROCS concurrent parsers, invoking emit once per
// file in sorted path order (see parseCSVFiles). A directory that cannot
// be walked, or holds no CSV file, fails with a typed bad-request error
// before emit runs; a file that does not parse reaches emit with a typed
// bad-request error in ParsedCSV.Err. An error emit returns ends the load
// and is returned.
func LoadCSVDir(dir string, emit func(ParsedCSV) error) error {
	paths, err := walkCSVFiles(dir)
	if err != nil {
		return berr.Wrap(berr.CodeBadRequest, "datalake.load", err)
	}
	if len(paths) == 0 {
		return berr.New(berr.CodeBadRequest, "datalake.load", "no CSV files under %s", dir)
	}
	return parseCSVFiles(paths, emit)
}

// walkCSVFiles returns every *.csv file under dir, descending into
// subdirectories, sorted by path so downstream table-id assignment is
// deterministic regardless of filesystem iteration order.
func walkCSVFiles(dir string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(strings.ToLower(d.Name()), ".csv") {
			return nil
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// ParsedCSV is one pipeline result: the file it came from and either the
// parsed table or the parse failure, a typed bad-request error naming the
// file.
type ParsedCSV struct {
	Path  string
	Table *table.Table
	Err   error
}

// readAheadPerWorker bounds how far parseCSVFiles parses past the next
// file to emit: at most readAheadPerWorker × GOMAXPROCS files wait parsed
// in memory, however slowly emit commits them.
const readAheadPerWorker = 2

// parseCSVFiles parses the given files on GOMAXPROCS concurrent parsers
// and invokes emit once per file in input order — parallel parse,
// sequential commit, so table ids downstream match the sorted path order
// exactly like a sequential load. Parsers run at most
// readAheadPerWorker × GOMAXPROCS files ahead of emit, so a slow emit
// bounds memory instead of letting the whole directory pile up parsed.
// Parse failures are delivered through ParsedCSV.Err for emit to decide
// on (skip, or abort by returning it); a non-nil error from emit stops
// the parsers and is returned. Emit is also where a caller honours its
// context: returning the context's error aborts between files.
func parseCSVFiles(paths []string, emit func(ParsedCSV) error) error {
	// Every file gets a 1-slot result channel, so workers never block on
	// delivery and the emit loop receives in input order. The emit loop
	// also dispatches: it queues the first window+1 files up front and one
	// more per file it emits, so the next file to emit plus at most window
	// more are ever queued or parsed, and the queue never fills.
	procs := runtime.GOMAXPROCS(0)
	window := readAheadPerWorker * procs
	results := make([]chan ParsedCSV, len(paths))
	for i := range results {
		results[i] = make(chan ParsedCSV, 1)
	}
	stop := make(chan struct{})
	jobs := make(chan int, window+1)
	for i := range min(window+1, len(paths)) {
		jobs <- i
	}
	var wg sync.WaitGroup
	for range min(procs, len(paths)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				select {
				case <-stop:
					return
				default:
				}
				t, err := table.ReadCSVFile(paths[i])
				if err != nil {
					err = berr.New(berr.CodeBadRequest, "datalake.load", "parse %s: %v", paths[i], err)
				}
				results[i] <- ParsedCSV{Path: paths[i], Table: t, Err: err}
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)
	defer close(stop)

	for i := range paths {
		if err := emit(<-results[i]); err != nil {
			return err
		}
		if next := i + window + 1; next < len(paths) {
			jobs <- next
		}
	}
	return nil
}
