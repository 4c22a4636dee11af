// Package blend is a unified data discovery system for tabular data lakes,
// reproducing "BLEND: A Unified Data Discovery System" (ICDE 2025).
//
// BLEND answers discovery queries — keyword search, single- and
// multi-column join discovery, union search, and correlation discovery —
// over a lake of tables through one declarative Plan API. All operators
// execute as SQL over a single unified index (the AllTables fact table),
// and a two-phase optimizer reorders operators and rewrites their SQL with
// intermediate results before execution.
//
// Basic usage:
//
//	d := blend.IndexTables(blend.ColumnStore, tables)
//	plan := blend.NewPlan()
//	plan.MustAddSeeker("rows", blend.MC(examples, 10))
//	plan.MustAddSeeker("col", blend.SC(values, 10))
//	plan.MustAddCombiner("both", blend.Intersect(10), "rows", "col")
//	res, err := d.Run(ctx, plan)
//	// res.Tables lists the top tables, best first.
package blend

import (
	"context"
	"fmt"
	"io"

	"blend/internal/core"
	"blend/internal/datalake"
	"blend/internal/storage"
	"blend/internal/table"
)

// Re-exported substrate types. Table is the relational table model.
type (
	// Table is an in-memory relational table (see NewTable, ReadCSVFile).
	Table = table.Table
	// Column is one table attribute.
	Column = table.Column
	// Plan is a declarative discovery task: a DAG of seekers and
	// combiners.
	Plan = core.Plan
	// Seeker is a low-level search operator.
	Seeker = core.Seeker
	// Combiner merges seeker results with a set operation.
	Combiner = core.Combiner
	// Result is the outcome of running a plan.
	Result = core.PlanResult
	// Hits is an ordered list of scored tables.
	Hits = core.Hits
	// TableHit is one scored table.
	TableHit = core.TableHit
	// CacheStats summarizes the engine's seeker result cache.
	CacheStats = core.CacheStats
)

// Layout names the physical layout of the AllTables index. The column
// layout is the only one; the type remains so that callers passing
// ColumnStore to IndexTables and IndexCSVDir keep compiling.
type Layout int

// ColumnStore stores index attributes in parallel arrays (the paper's
// column-store deployment).
const ColumnStore Layout = 0

// NewTable creates an empty table with the given column names.
func NewTable(name string, columns ...string) *Table { return table.New(name, columns...) }

// ReadCSVFile loads one table from a CSV file.
func ReadCSVFile(path string) (*Table, error) { return table.ReadCSVFile(path) }

// ReadCSV parses one table from CSV bytes, naming it explicitly — the
// entry point for ingest sources that are not files (HTTP uploads, object
// stores). The first record is the header; column kinds are inferred.
func ReadCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// ReadCSVDir loads every *.csv file under dir, subdirectories included,
// as a table named after its file, in sorted path order. It is the loader
// IndexCSVDir and IngestCSVDir also use: GOMAXPROCS files parse at once.
// A directory that cannot be walked, holds no CSV file, or holds one that
// does not parse fails with ErrBadRequest.
func ReadCSVDir(dir string) ([]*Table, error) {
	var tables []*Table
	err := datalake.LoadCSVDir(dir, func(p datalake.ParsedCSV) error {
		if p.Err != nil {
			return p.Err
		}
		tables = append(tables, p.Table)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// NewPlan creates an empty discovery plan.
func NewPlan() *Plan { return core.NewPlan() }

// ParsePlanJSON decodes a declarative JSON plan document (see the format
// documented in internal/core/planjson.go and the `blend plan` CLI).
func ParsePlanJSON(r io.Reader) (*Plan, error) { return core.ParsePlanJSON(r) }

// EncodePlanJSON writes a plan as its JSON document. Plans containing
// user-defined combiners cannot be encoded.
func EncodePlanJSON(p *Plan, w io.Writer) error { return core.EncodePlanJSON(p, w) }

// ParseSeekerJSON decodes one standalone seeker document — the "seeker"
// object of a plan node, e.g. {"kind": "sc", "values": ["HR"], "k": 10}.
// The HTTP service's /v1/seek endpoint executes these.
func ParseSeekerJSON(r io.Reader) (Seeker, error) { return core.ParseSeekerJSON(r) }

// EncodeSeekerJSON renders a single seeker back to its JSON document.
func EncodeSeekerJSON(s Seeker, w io.Writer) error { return core.EncodeSeekerJSON(s, w) }

// Seeker constructors (§IV-A of the paper).

// SC builds a single-column join seeker: top-k tables with a column
// overlapping the given values the most.
func SC(values []string, k int) Seeker { return core.NewSC(values, k) }

// KW builds a keyword seeker: top-k tables overlapping the keywords
// anywhere in the table.
func KW(keywords []string, k int) Seeker { return core.NewKW(keywords, k) }

// MC builds a multi-column join seeker: top-k tables containing whole query
// tuples in single rows. Each tuple lists the composite-key values of one
// query row.
func MC(tuples [][]string, k int) Seeker { return core.NewMC(tuples, k) }

// Correlation builds a correlation seeker: top-k tables joinable on the
// keys whose numeric column correlates the most (by |QCR|) with the target.
// keys and targets are paired by position.
func Correlation(keys []string, targets []float64, k int) Seeker {
	return core.NewCorrelation(keys, targets, k)
}

// Semantic builds an embedding-based seeker: top-k tables with a column
// semantically similar to the given values, served by an HNSW index over
// column embeddings. This implements the paper's future-work extension
// (§X); results are approximate and the optimizer neither reorders nor
// rewrites the underlying ANN search.
func Semantic(values []string, k int) Seeker { return core.NewSemantic(values, k) }

// Combiner constructors (§IV-B).

// Intersect keeps tables found by every input.
func Intersect(k int) Combiner { return core.NewIntersect(k) }

// Union keeps tables found by any input.
func Union(k int) Combiner { return core.NewUnion(k) }

// Difference keeps tables of the first input absent from the second.
func Difference(k int) Combiner { return core.NewDifference(k) }

// Counter ranks tables by how many inputs found them.
func Counter(k int) Combiner { return core.NewCounter(k) }

// Discovery is the top-level handle on one indexed data lake.
type Discovery struct {
	engine *core.Engine
}

// IndexOption configures IndexTables, IndexCSVDir and OpenIndex. There
// are two: WithShards, which picks the physical partitioning at build
// time, and WithoutNativeExec, which configures the engine. The result
// cache is sized after construction with Discovery.SetResultCache.
type IndexOption func(*indexConfig)

type indexConfig struct {
	shards   int
	noNative bool
}

// WithShards hash-partitions the index's tables across n shards, each with
// its own dictionary, inverted index, and table-range index. Seekers then
// scan every shard concurrently and merge top-k results, while the global
// view (table ids, raw SQL, persistence) stays identical to a monolithic
// index. Without it (or with n <= 1) the index has one shard.
func WithShards(n int) IndexOption {
	return func(c *indexConfig) { c.shards = n }
}

// WithoutNativeExec forces every seeker through SQL generation and the
// embedded interpreter — the pre-fast-path behavior. Results are identical
// to the native posting-list executor (the path-equivalence tests assert
// it); only the runtime differs. Intended for A/B benchmarking and
// debugging with `-explain`.
func WithoutNativeExec() IndexOption {
	return func(c *indexConfig) { c.noNative = true }
}

// IndexTables builds the unified index over the given tables (the offline
// phase, Fig. 2e) and returns a ready-to-query Discovery. Call
// Table.InferKinds (or load via CSV, which infers automatically) before
// indexing so numeric columns gain quadrant bits. The layout argument must
// be ColumnStore. Options select the physical organisation, e.g.
// WithShards(8) for a hash-partitioned index.
func IndexTables(_ Layout, tables []*Table, opts ...IndexOption) *Discovery {
	var cfg indexConfig
	for _, o := range opts {
		o(&cfg)
	}
	return newDiscovery(storage.Build(tables, cfg.shards), cfg)
}

// newDiscovery wires an indexConfig's engine-level options onto a fresh
// engine — the one place IndexTables and OpenIndex share, so an engine
// option added to one construction path cannot silently be a no-op on the
// other. (Build-time options like WithShards act before this point.)
func newDiscovery(idx *storage.ShardedStore, cfg indexConfig) *Discovery {
	e := core.NewEngine(idx)
	e.NoNativeExec = cfg.noNative
	return &Discovery{engine: e}
}

// IndexCSVDir loads every *.csv file under dir, subdirectories included,
// with ReadCSVDir and indexes the resulting lake with IndexTables, so
// table ids follow sorted path order exactly as IngestCSVDir assigns them
// on an empty index. ReadCSVDir's failures (ErrBadRequest) pass through.
func IndexCSVDir(layout Layout, dir string, opts ...IndexOption) (*Discovery, error) {
	tables, err := ReadCSVDir(dir)
	if err != nil {
		return nil, err
	}
	return IndexTables(layout, tables, opts...), nil
}

// OpenIndex opens a previously saved v4 index file and decodes all of it
// before it returns: every section checksum and every entry is checked,
// every shard is decoded to the heap, and nothing refers to the file
// afterwards. The result is the same in-memory index IndexTables builds,
// so query results equal those of the index the file was saved from (the
// differential tests assert it). A missing, truncated or corrupt file, or
// one in the retired v1–v3 formats, fails with ErrBadIndex; retired files
// must be rebuilt with `blend index`. WithoutNativeExec configures the
// engine the same way it does at build time; WithShards is ignored,
// because the shard count is a property of the persisted file.
func OpenIndex(path string, opts ...IndexOption) (*Discovery, error) {
	var cfg indexConfig
	for _, o := range opts {
		o(&cfg)
	}
	s, err := storage.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("blend: open index %s: %w", path, err)
	}
	return newDiscovery(s, cfg), nil
}

// SaveIndex persists the index to a file for later OpenIndex calls. With
// a write-ahead log enabled (EnableWAL), a successful save also
// checkpoints the log at the saved generation, so only mutations after
// the save are ever replayed.
func (d *Discovery) SaveIndex(path string) error {
	if err := d.engine.SaveFile(path); err != nil {
		return fmt.Errorf("blend: save index %s: %w", path, err)
	}
	return nil
}

// EnableWAL attaches an append-only write-ahead log at path to the index:
// every mutation is journaled and synced before its generation publishes,
// so a crash between a publish and the next SaveIndex loses nothing — on
// reopen, EnableWAL replays the mutations recorded since the log's last
// checkpoint and resumes at the generation the crashed process had
// published. Call it right after IndexTables/OpenIndex, before mutations
// begin; SaveIndex checkpoints the log so it stays short. The returned
// close function releases the log file handle (call it after the
// Discovery is done mutating).
func (d *Discovery) EnableWAL(path string) (func() error, error) {
	wal, recs, gen, err := storage.OpenWAL(path)
	if err != nil {
		return nil, fmt.Errorf("blend: open wal %s: %w", path, err)
	}
	// Fast-forward to the checkpointed generation first so replayed
	// mutations continue the pre-crash numbering, then apply the recorded
	// mutations through the engine — journal not yet attached, so replay
	// does not re-append what the log already holds.
	d.engine.SeedGeneration(gen)
	for _, rec := range recs {
		if tables, ok := rec.IsAddTables(); ok {
			if _, err := d.engine.AddTables(tables); err != nil {
				wal.Close()
				return nil, fmt.Errorf("blend: replay wal %s: %w", path, err)
			}
			continue
		}
		if tid, ok := rec.IsRemove(); ok {
			if err := d.engine.RemoveTable(tid); err != nil {
				wal.Close()
				return nil, fmt.Errorf("blend: replay wal %s: %w", path, err)
			}
			continue
		}
		if rec.IsCompact() {
			if _, err := d.engine.Compact(); err != nil {
				wal.Close()
				return nil, fmt.Errorf("blend: replay wal %s: %w", path, err)
			}
		}
	}
	d.engine.SetJournal(wal)
	return wal.Close, nil
}

// Run executes a plan under the given context — the single query entry
// point of API v2. With no options the two-phase optimizer is enabled;
// functional options tune the call:
//
//	res, err := d.Run(ctx, plan, blend.WithExplain(), blend.WithDeadline(time.Second))
//
// Run pins one generation — the current one, or retained generation g
// under WithAsOf(g) — exactly as SnapshotAt does and runs the plan
// through Snapshot.Run. Ingestion never blocks it and is never blocked
// by it, so it is safe for concurrent use. A generation outside
// the retention window fails with ErrGenerationGone, and a closed
// Discovery with its closed error, before anything executes.
//
// Every plan runs on the concurrent DAG scheduler with GOMAXPROCS workers;
// results are identical to a one-at-a-time execution. Cancellation is
// honored between scheduler tasks, execution-group members, and per-shard
// index scans; on cancellation the error matches blend.ErrCanceled (or
// blend.ErrDeadlineExceeded) under errors.Is, and also wraps the
// context's own error.
func (d *Discovery) Run(ctx context.Context, p *Plan, opts ...RunOption) (*Result, error) {
	s, err := d.SnapshotAt(fold(opts).asOf)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	return s.Run(ctx, p, opts...)
}

// Seek executes a single seeker outside any plan and returns the scored
// tables. It pins a generation as Run does (WithAsOf included) and runs
// through Snapshot.Seek; WithoutOptimizer and WithExplain are no-ops for
// a single operator.
func (d *Discovery) Seek(ctx context.Context, s Seeker, opts ...RunOption) (Hits, error) {
	sn, err := d.SnapshotAt(fold(opts).asOf)
	if err != nil {
		return nil, err
	}
	defer sn.Release()
	return sn.Seek(ctx, s, opts...)
}

// Snapshot pins the current index generation and returns a handle whose
// queries all see that exact state, no matter how much ingestion happens
// concurrently — the way to run a multi-query analysis against one
// consistent lake. The handle keeps its generation readable for as long as
// it is held, even after the retention window moves past it; Release it
// when done.
func (d *Discovery) Snapshot() (*Snapshot, error) { return d.SnapshotAt(0) }

// SnapshotAt pins retained historical generation gen (0 means current).
// Generations outside the retention window fail with ErrGenerationGone;
// after Close every generation fails with the closed error.
func (d *Discovery) SnapshotAt(gen uint64) (*Snapshot, error) {
	sn, err := d.engine.SnapshotAt(gen)
	if err != nil {
		return nil, err
	}
	return &Snapshot{sn: sn}, nil
}

// Snapshot is a pinned generation of the index: a read-only, immutable
// handle whose Run and Seek execute against the exact state published at
// Generation, regardless of concurrent ingestion. Obtain one with
// Discovery.Snapshot or Discovery.SnapshotAt. Queries through it fail
// once it is released or its Discovery closed.
type Snapshot struct {
	sn *core.Snapshot
}

// Generation reports the pinned generation number.
func (s *Snapshot) Generation() uint64 { return s.sn.Generation() }

// Run executes a plan against the pinned generation — the one plan path
// Discovery.Run also takes. It accepts the same options, except WithAsOf,
// which is ignored: the handle already fixes the generation. It fails
// once the handle is released or its Discovery closed.
func (s *Snapshot) Run(ctx context.Context, p *Plan, opts ...RunOption) (*Result, error) {
	ctx, cfg, cancel := apply(ctx, opts)
	defer cancel()
	return s.sn.Run(ctx, p, core.RunOptions{Optimize: !cfg.noOptimize, Explain: cfg.explain})
}

// Seek executes a single seeker against the pinned generation — the one
// seeker path Discovery.Seek also takes; WithAsOf is ignored.
func (s *Snapshot) Seek(ctx context.Context, seeker Seeker, opts ...RunOption) (Hits, error) {
	ctx, _, cancel := apply(ctx, opts)
	defer cancel()
	hits, _, err := s.sn.RunSeeker(ctx, seeker)
	return hits, err
}

// TableNames maps hits to table names as they were at the pinned
// generation — the names to show beside hits from Run or Seek through
// this handle, even after a Compact has renumbered the current tables.
func (s *Snapshot) TableNames(h Hits) []string { return s.sn.TableNames(h) }

// Release marks the handle released: queries through it fail afterwards.
// Releasing twice is a no-op.
func (s *Snapshot) Release() { s.sn.Release() }

// Generation reports the currently published index generation. Generations
// start at 1 and advance by one per committed mutation (AddTable,
// AddTables, RemoveTable, Compact).
func (d *Discovery) Generation() uint64 { return d.engine.Generation() }

// RetainedGenerations lists the generations currently pinnable for time
// travel, oldest first; the last entry is the current generation.
func (d *Discovery) RetainedGenerations() []uint64 { return d.engine.RetainedGenerations() }

// SetRetention bounds how many generations stay pinnable for WithAsOf /
// SnapshotAt (minimum 1, the current one; default 4). Shrinking the window
// releases the excess immediately.
func (d *Discovery) SetRetention(n int) { d.engine.SetRetention(n) }

// WritePlanDot renders a plan's DAG in Graphviz dot format (Fig. 2b).
func WritePlanDot(p *Plan, w io.Writer) error { return p.WriteDot(w) }

// SetCorrelationSampleSize sets h, the number of leading row ids the
// correlation seeker samples (§V; default 256). Unlike the sketch baseline,
// h can be changed per query without re-indexing the lake.
func (d *Discovery) SetCorrelationSampleSize(h int) { d.engine.SampleH = h }

// TableNames maps hits to table names at the current generation; name the
// hits of a historical generation with Snapshot.TableNames instead.
func (d *Discovery) TableNames(h Hits) []string { return d.engine.TableNames(h) }

// AddTable appends one table to the index without rebuilding it — the
// incremental maintenance a single unified index enables (§I). It is
// AddTables with a batch of one: a name already indexed fails with
// ErrDuplicateTable, a journal failure returns a typed error, and either
// leaves the index and its generation unchanged. AddTable is safe
// concurrently with queries: in-flight plans keep their pinned
// generation, and queries issued after it returns see the new table.
func (d *Discovery) AddTable(t *Table) error {
	_, err := d.engine.AddTables([]*Table{t})
	return err
}

// SetResultCache enables the engine's seeker result cache with room for n
// entries, or disables it when n <= 0; it may be called at any time.
// Repeated seekers (standalone or inside plans) then return their memoized
// top-k list instead of rescanning the index. Entries are keyed by
// (seeker fingerprint, rewrite, store generation), so a query never reads
// an entry computed at another generation and results are never stale.
// The cache is off by default, so benchmark and experiment timings keep
// measuring real executions; serving deployments (blend-serve) enable it.
// CacheStats reports hit rates.
func (d *Discovery) SetResultCache(n int) { d.engine.SetResultCache(n) }

// CacheStats snapshots the result cache counters (zero value when the
// cache is disabled).
func (d *Discovery) CacheStats() CacheStats { return d.engine.ResultCacheStats() }

// NumTables reports the number of allocated table ids, including tables
// removed but not yet compacted away — the bound for TableByID
// iteration. LiveTables counts only discoverable tables.
func (d *Discovery) NumTables() int { return d.engine.NumTables() }

// LiveTables reports the number of discoverable tables (allocated ids
// minus tombstones); it equals NumTables once Compact has run.
func (d *Discovery) LiveTables() int { return d.engine.LiveTables() }

// NumShards reports how many partitions back the index (1 when
// monolithic).
func (d *Discovery) NumShards() int { return d.engine.Store().NumShards() }

// Stats summarizes the index (shape, dictionary, posting-list skew).
func (d *Discovery) Stats() storage.Stats { return d.engine.ComputeStats() }

// TableByID reconstructs an indexed table from the unified index (BLEND
// never retains source files; cell locations suffice). It returns nil
// when the id is out of range.
func (d *Discovery) TableByID(id int32) *Table { return d.engine.ReconstructTable(id) }

// IndexSizeBytes estimates the resident size of the unified index.
func (d *Discovery) IndexSizeBytes() int64 { return d.engine.SizeBytes() }

// Close drops every retained generation. After Close, new queries and
// queries through existing Snapshot handles fail with a typed internal
// error; queries already running finish. Closing twice is a no-op, and
// the error is always nil.
func (d *Discovery) Close() error { return d.engine.Close() }

// Engine exposes the underlying execution engine for advanced use
// (experiments, benchmarking, raw SQL via Engine.Catalog).
func (d *Discovery) Engine() *core.Engine { return d.engine }
