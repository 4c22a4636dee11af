package blend

import (
	"context"
	"time"

	"blend/internal/berr"
	"blend/internal/core"
	"blend/internal/datalake"
)

// Bulk ingestion and table lifecycle: the write path of the Discovery API.
// AddTables commits a set of in-memory tables as one index maintenance
// operation; IngestCSVDir streams a directory of CSV files through the
// loader that also backs ReadCSVDir and IndexCSVDir, into fixed-size
// commits; RemoveTable and Compact let the lake evolve. All of them are
// safe concurrently with queries — mutations serialize among themselves,
// build the next generation copy-on-write, and publish it atomically;
// in-flight plans keep reading their pinned snapshot and never wait.

// MaintStats counts index maintenance (batches, tables/rows added,
// removals, compactions) since the Discovery was built. See
// Discovery.MaintStats.
type MaintStats = core.MaintStats

// IngestOption tunes IngestCSVDir.
type IngestOption func(*ingestConfig)

type ingestConfig struct {
	skipBad bool
}

// ingestBatchSize is how many tables IngestCSVDir commits per engine
// batch: enough to amortise a publish, and few enough that a large
// directory never sits parsed in memory whole.
const ingestBatchSize = 256

// WithSkipBadFiles makes IngestCSVDir skip files that fail to parse
// (recording them in IngestReport.SkippedFiles) instead of aborting the
// ingest on the first corrupt CSV.
func WithSkipBadFiles() IngestOption {
	return func(c *ingestConfig) { c.skipBad = true }
}

// IngestReport summarizes one IngestCSVDir run.
type IngestReport struct {
	// TableIDs are the assigned ids, in committed order.
	TableIDs []int32
	// TablesAdded and RowsAdded count what was committed.
	TablesAdded int
	RowsAdded   int
	// FilesRead counts CSV files discovered and parsed; SkippedFiles
	// lists files skipped under WithSkipBadFiles.
	FilesRead    int
	SkippedFiles []string
	// Batches is the number of committed index batches.
	Batches int
	// Duration is the wall-clock time of the whole ingest.
	Duration time.Duration
}

// Throughput reports tables ingested per second (0 for an empty run).
func (r *IngestReport) Throughput() float64 {
	if r.Duration <= 0 || r.TablesAdded == 0 {
		return 0
	}
	return float64(r.TablesAdded) / r.Duration.Seconds()
}

// AddTables appends tables to the index as one maintenance operation —
// the bulk counterpart of AddTable. The whole call is one atomic batch:
// one write-lock acquisition, one store-generation bump and one
// result-cache purge.
//
// Table names must be unique across the lake and within the call; a
// duplicate fails with ErrDuplicateTable and nothing of the call is
// applied. A context already done when the call starts fails with
// ErrCanceled / ErrDeadlineExceeded, also with nothing applied.
func (d *Discovery) AddTables(ctx context.Context, tables []*Table) ([]int32, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, berr.FromContext("blend.ingest", ctx.Err())
	}
	return d.engine.AddTables(tables)
}

// IngestCSVDir bulk-loads every *.csv under dir (subdirectories included)
// into the index through the loader ReadCSVDir uses: GOMAXPROCS
// concurrent CSV parsers whose output is committed in sorted path order,
// 256 tables per atomic engine batch. Parsing runs a bounded window of
// files ahead of the commits, so memory holds at most a few parsed files
// per parser beyond the batch being built. A directory that cannot be
// walked or holds no CSV file fails with ErrBadRequest and commits
// nothing. A parse failure aborts the ingest with ErrBadRequest and the
// current batch unapplied, unless WithSkipBadFiles turned skipping on;
// batches committed before the failure remain indexed. The context is
// checked before each file: cancellation mid-ingest leaves only whole
// committed batches behind and reports ErrCanceled / ErrDeadlineExceeded.
func (d *Discovery) IngestCSVDir(ctx context.Context, dir string, opts ...IngestOption) (*IngestReport, error) {
	var cfg ingestConfig
	for _, o := range opts {
		o(&cfg)
	}
	start := time.Now()
	report := &IngestReport{}
	batch := make([]*Table, 0, ingestBatchSize)
	commit := func() error {
		if len(batch) == 0 {
			return nil
		}
		ids, err := d.engine.AddTables(batch)
		if err != nil {
			return err
		}
		report.TableIDs = append(report.TableIDs, ids...)
		report.TablesAdded += len(ids)
		for _, t := range batch {
			report.RowsAdded += len(t.Rows)
		}
		report.Batches++
		batch = batch[:0]
		return nil
	}
	err := datalake.LoadCSVDir(dir, func(p datalake.ParsedCSV) error {
		if ctx != nil && ctx.Err() != nil {
			return berr.FromContext("blend.ingest", ctx.Err())
		}
		if p.Err != nil {
			if cfg.skipBad {
				report.SkippedFiles = append(report.SkippedFiles, p.Path)
				return nil
			}
			return p.Err
		}
		report.FilesRead++
		batch = append(batch, p.Table)
		if len(batch) == ingestBatchSize {
			return commit()
		}
		return nil
	})
	if err == nil {
		err = commit()
	}
	report.Duration = time.Since(start)
	return report, err
}

// RemoveTable tombstones one table by id: it immediately stops being
// discoverable by every seeker, raw SQL, and reconstruction, while its
// index entries stay allocated until Compact reclaims them. Unknown or
// already-removed ids report ErrNotFound.
func (d *Discovery) RemoveTable(id int32) error { return d.engine.RemoveTable(id) }

// Compact physically reclaims every removed table's entries and returns
// how many tables were compacted away. Table ids are reassigned
// contiguously — re-resolve held ids with TableIDByName afterwards. When
// the write-ahead log cannot record the compaction, Compact returns
// ErrInternal wrapping the cause and publishes nothing.
func (d *Discovery) Compact() (int, error) { return d.engine.Compact() }

// TableIDByName resolves a live table name to its current id, or -1. Ids
// are stable between compactions; names are stable forever.
func (d *Discovery) TableIDByName(name string) int32 { return d.engine.TableIDByName(name) }

// MaintStats snapshots the maintenance counters: ingest batches, tables
// and rows added, removals, compactions, and last-batch throughput.
func (d *Discovery) MaintStats() MaintStats { return d.engine.MaintStats() }
