package datalake

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"blend/internal/berr"
	"blend/internal/table"
)

// The bulk-ingestion pipeline: a directory walker feeding bounded parse
// workers feeding, downstream, the engine's batched inserts. The walker
// and parsers live here (next to the synthetic lake generators) because
// they are lake-shaping concerns; the commit path — batching, duplicate
// checks, cache invalidation — lives with the engine.

// WalkCSVFiles returns every *.csv file under dir, descending into
// subdirectories, sorted by path so downstream table-id assignment is
// deterministic regardless of filesystem iteration order.
func WalkCSVFiles(dir string) ([]string, error) {
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
// parsed table or the parse failure.
type ParsedCSV struct {
	Path  string
	Table *table.Table
	Err   error
}

// readAheadPerWorker bounds how far ParseCSVFiles parses past the next
// file to emit: at most readAheadPerWorker × GOMAXPROCS files wait parsed
// in memory, however slowly emit commits them.
const readAheadPerWorker = 2

// ParseCSVFiles parses the given files on GOMAXPROCS concurrent parsers
// and invokes emit once per file in input order — parallel parse,
// sequential commit, so table ids downstream match the sorted path order
// exactly like a sequential load. Parsers run at most
// readAheadPerWorker × GOMAXPROCS files ahead of emit, so a slow emit
// bounds memory instead of letting the whole directory pile up parsed.
// Parse failures are delivered through ParsedCSV.Err for emit to decide
// on (skip or abort); a non-nil error from emit aborts the pipeline and
// is returned. Context cancellation aborts between files with a typed
// canceled/deadline error; already-emitted files are unaffected.
func ParseCSVFiles(ctx context.Context, paths []string, emit func(ParsedCSV) error) error {
	if len(paths) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
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
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

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
				if pctx.Err() != nil {
					return
				}
				t, err := table.ReadCSVFile(paths[i])
				results[i] <- ParsedCSV{Path: paths[i], Table: t, Err: err}
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)

	for i := range paths {
		select {
		case p := <-results[i]:
			if err := emit(p); err != nil {
				cancel()
				return err
			}
			if next := i + window + 1; next < len(paths) {
				jobs <- next
			}
		case <-ctx.Done():
			cancel()
			return berr.FromContext("datalake.ingest", ctx.Err())
		}
	}
	return nil
}
