package blend

import (
	"context"
	"fmt"
	"time"

	"blend/internal/berr"
	"blend/internal/core"
	"blend/internal/datalake"
)

// Bulk ingestion and table lifecycle: the write path of the Discovery API.
// AddTables commits a batch of in-memory tables as one index maintenance
// operation; IngestCSVDir streams a directory of CSV files through a
// concurrent parse pipeline into batched commits; RemoveTable and Compact
// let the lake evolve. All of them are safe concurrently with queries —
// mutations serialize among themselves, build the next generation
// copy-on-write, and publish it atomically; in-flight plans keep reading
// their pinned snapshot and never wait.

// MaintStats counts index maintenance (batches, tables/rows added,
// removals, compactions) since the Discovery was built. See
// Discovery.MaintStats.
type MaintStats = core.MaintStats

// IngestOption tunes AddTables and IngestCSVDir.
type IngestOption func(*ingestConfig)

type ingestConfig struct {
	batchSize int
	skipBad   bool
}

// DefaultIngestBatchSize is the number of tables committed per index batch
// when WithIngestBatchSize is not given.
const DefaultIngestBatchSize = 256

func ingestOptions(opts []IngestOption) ingestConfig {
	cfg := ingestConfig{batchSize: DefaultIngestBatchSize}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.batchSize <= 0 {
		cfg.batchSize = DefaultIngestBatchSize
	}
	return cfg
}

// WithIngestBatchSize sets how many tables are committed per index batch.
// Each batch is atomic — it is applied entirely or not at all — and costs
// one generation publish regardless of its size. Larger batches amortize
// better but make each copy-on-write commit larger. n <= 0 restores
// DefaultIngestBatchSize.
func WithIngestBatchSize(n int) IngestOption {
	return func(c *ingestConfig) { c.batchSize = n }
}

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

// AddTables appends a batch of tables to the index as one maintenance
// operation — the bulk counterpart of AddTable. The whole call costs one
// write-lock acquisition, one store-generation bump, and one result-cache
// purge per committed batch (WithIngestBatchSize splits large inputs; by
// default inputs up to DefaultIngestBatchSize commit as a single batch),
// and on a sharded index the per-shard inserts run concurrently.
//
// Table names must be unique across the lake and within the call; a
// duplicate fails with ErrDuplicateTable and the offending batch is not
// applied (batches already committed by the same call remain — batches,
// not calls, are the atomic unit). Cancellation is honored between
// batches with ErrCanceled / ErrDeadlineExceeded.
func (d *Discovery) AddTables(ctx context.Context, tables []*Table, opts ...IngestOption) ([]int32, error) {
	cfg := ingestOptions(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]struct{}, len(tables))
	for _, t := range tables {
		if _, dup := seen[t.Name]; dup {
			return nil, berr.New(berr.CodeDuplicateTable, "blend.ingest",
				"table %q appears twice in the batch", t.Name)
		}
		seen[t.Name] = struct{}{}
	}
	ids := make([]int32, 0, len(tables))
	for start := 0; start < len(tables); start += cfg.batchSize {
		if err := ctx.Err(); err != nil {
			return ids, berr.FromContext("blend.ingest", err)
		}
		end := start + cfg.batchSize
		if end > len(tables) {
			end = len(tables)
		}
		batch, err := d.engine.AddTables(tables[start:end])
		if err != nil {
			return ids, err
		}
		ids = append(ids, batch...)
	}
	return ids, nil
}

// IngestCSVDir bulk-loads every *.csv under dir (subdirectories included)
// into the index: a directory walk feeds GOMAXPROCS concurrent CSV
// parsers, whose output is committed in deterministic path order through
// the same batched maintenance path as AddTables. Parsing runs a bounded
// window of files ahead of the commits, so memory holds at most a few
// parsed files per parser beyond the batch being built. A parse failure
// aborts the ingest with the current batch unapplied, unless
// WithSkipBadFiles turned skipping on; batches committed before the
// failure remain indexed. Cancellation mid-ingest leaves only whole
// committed batches behind and reports ErrCanceled / ErrDeadlineExceeded.
func (d *Discovery) IngestCSVDir(ctx context.Context, dir string, opts ...IngestOption) (*IngestReport, error) {
	cfg := ingestOptions(opts)
	start := time.Now()
	paths, err := datalake.WalkCSVFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("blend: walk lake %s: %w", dir, err)
	}
	report := &IngestReport{}
	batch := make([]*Table, 0, cfg.batchSize)
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
	err = datalake.ParseCSVFiles(ctx, paths, func(p datalake.ParsedCSV) error {
		if p.Err != nil {
			if cfg.skipBad {
				report.SkippedFiles = append(report.SkippedFiles, p.Path)
				return nil
			}
			return berr.New(berr.CodeBadRequest, "blend.ingest", "parse %s: %v", p.Path, p.Err)
		}
		report.FilesRead++
		batch = append(batch, p.Table)
		if len(batch) >= cfg.batchSize {
			return commit()
		}
		return nil
	})
	if err == nil {
		err = commit()
	}
	report.Duration = time.Since(start)
	if err != nil {
		return report, err
	}
	return report, nil
}

// RemoveTable tombstones one table by id: it immediately stops being
// discoverable by every seeker, raw SQL, and reconstruction, while its
// index entries stay allocated until Compact reclaims them. Unknown or
// already-removed ids report ErrNotFound.
func (d *Discovery) RemoveTable(id int32) error { return d.engine.RemoveTable(id) }

// Compact physically reclaims every removed table's entries and returns
// how many tables were compacted away. Table ids are reassigned
// contiguously — re-resolve held ids with TableIDByName afterwards.
func (d *Discovery) Compact() int { return d.engine.Compact() }

// TableIDByName resolves a live table name to its current id, or -1. Ids
// are stable between compactions; names are stable forever.
func (d *Discovery) TableIDByName(name string) int32 { return d.engine.TableIDByName(name) }

// MaintStats snapshots the maintenance counters: ingest batches, tables
// and rows added, removals, compactions, and last-batch throughput.
func (d *Discovery) MaintStats() MaintStats { return d.engine.MaintStats() }
