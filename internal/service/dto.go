// Package service is BLEND's transport layer: versioned request/response
// DTOs for discovery over the wire, their validation, and the HTTP
// handlers mounted by cmd/blend-serve. The DTOs deliberately carry the
// same declarative plan-JSON documents the CLI executes, so a plan moves
// between `blend plan -file`, the Go API, and `POST /v1/query` unchanged.
package service

import (
	"encoding/json"

	"blend/internal/berr"
)

// QueryRequest is the body of POST /v1/query: a declarative plan document
// plus execution options.
type QueryRequest struct {
	// Plan is the plan-JSON document (see internal/core/planjson.go):
	// {"output": ..., "nodes": [...]}.
	Plan json.RawMessage `json:"plan"`
	// Options tunes execution; omitted fields keep server defaults.
	Options *RunOptionsDTO `json:"options,omitempty"`
}

// SeekRequest is the body of POST /v1/seek: one seeker document executed
// standalone (the paper's "simple task" mode).
type SeekRequest struct {
	// Seeker is a seeker document, e.g.
	// {"kind": "sc", "values": ["HR"], "k": 10}.
	Seeker json.RawMessage `json:"seeker"`
	// Options tunes execution; only TimeoutMillis applies to a seek.
	Options *RunOptionsDTO `json:"options,omitempty"`
}

// SQLRequest is the body of POST /v1/sql: raw SQL over the AllTables
// relation.
type SQLRequest struct {
	Query string `json:"query"`
	// MaxRows caps the rows returned (0 means the server default).
	MaxRows int `json:"max_rows,omitempty"`
}

// RunOptionsDTO mirrors the library's functional options on the wire.
type RunOptionsDTO struct {
	// MaxWorkers > 0 executes the plan on the concurrent DAG scheduler
	// with that worker-pool bound. 0 (or omitted) falls back to the
	// server's configured default; negative explicitly requests the
	// server's width. Plans run sequentially only when neither side
	// asks for workers.
	MaxWorkers int `json:"max_workers,omitempty"`
	// TimeoutMillis bounds this request's execution; capped by (and
	// defaulting to) the server's per-request timeout.
	TimeoutMillis int `json:"timeout_millis,omitempty"`
	// NoOptimize disables the two-phase optimizer (the paper's B-NO).
	NoOptimize bool `json:"no_optimize,omitempty"`
	// Explain records the executed SQL per seeker into the response.
	Explain bool `json:"explain,omitempty"`
	// AsOfGeneration executes the request against the retained historical
	// generation instead of the current index (time travel). Zero or
	// omitted means current; a generation that already left the retention
	// window fails with generation_gone (HTTP 410).
	AsOfGeneration uint64 `json:"as_of_generation,omitempty"`
}

// Hit is one scored table.
type Hit struct {
	TableID int32   `json:"table_id"`
	Table   string  `json:"table"`
	Score   float64 `json:"score"`
}

// QueryResponse is the body of a successful /v1/query.
type QueryResponse struct {
	// Hits are the output node's scored tables, best first.
	Hits []Hit `json:"hits"`
	// SeekerOrder is the deterministic execution order.
	SeekerOrder []string `json:"seeker_order,omitempty"`
	// CompletionOrder is the order seekers actually finished in
	// (timing-dependent under concurrent execution).
	CompletionOrder []string `json:"completion_order,omitempty"`
	// PeakConcurrency is the maximum number of seekers observed running
	// simultaneously.
	PeakConcurrency int `json:"peak_concurrency"`
	// SeekerMicros maps seeker node ids to their execution time in
	// microseconds.
	SeekerMicros map[string]int64 `json:"seeker_micros,omitempty"`
	// SQLByNode maps seeker node ids to the SQL executed — or, for nodes
	// the native fast path served, the SQL it made unnecessary (only with
	// options.explain).
	SQLByNode map[string]string `json:"sql_by_node,omitempty"`
	// PathByNode maps seeker node ids to the execution path that served
	// them — "native", "sql", or "ann", with " (cached)" appended for
	// result-cache hits (only with options.explain).
	PathByNode map[string]string `json:"path_by_node,omitempty"`
	// DurationMicros is the total execution time in microseconds,
	// optimizer included.
	DurationMicros int64 `json:"duration_micros"`
}

// SeekResponse is the body of a successful /v1/seek.
type SeekResponse struct {
	Hits           []Hit `json:"hits"`
	DurationMicros int64 `json:"duration_micros"`
}

// SQLResponse is the body of a successful /v1/sql.
type SQLResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// TotalRows is the full result size before MaxRows truncation.
	TotalRows int `json:"total_rows"`
}

// IngestDirRequest is the JSON body of POST /v1/tables when Content-Type
// is application/json: a server-side bulk ingest of a CSV directory the
// server can read (gated by the server's allow-dir-ingest setting). The
// strict decoder rejects unknown fields, "workers" included: ingest
// parallelism is GOMAXPROCS and not settable per request.
type IngestDirRequest struct {
	// Dir is the directory to walk for *.csv files (recursive).
	Dir string `json:"dir"`
	// BatchSize is the number of tables per atomic commit batch
	// (0 = server default).
	BatchSize int `json:"batch_size,omitempty"`
	// SkipBad skips unparseable files instead of aborting the ingest.
	SkipBad bool `json:"skip_bad,omitempty"`
}

// IngestResponse is the body of a successful POST /v1/tables — both for
// CSV uploads and for server-side directory ingests.
type IngestResponse struct {
	// TableIDs are the assigned table ids in committed order.
	TableIDs []int32 `json:"table_ids"`
	// TablesAdded / RowsAdded count what was committed.
	TablesAdded int `json:"tables_added"`
	RowsAdded   int `json:"rows_added"`
	// Batches is the number of atomic commit batches.
	Batches int `json:"batches"`
	// SkippedFiles lists files skipped under skip_bad.
	SkippedFiles []string `json:"skipped_files,omitempty"`
	// DurationMicros is the ingest wall-clock time; TablesPerSec the
	// resulting throughput.
	DurationMicros int64   `json:"duration_micros"`
	TablesPerSec   float64 `json:"tables_per_sec"`
}

// RemoveResponse is the body of a successful DELETE /v1/tables/{id}.
type RemoveResponse struct {
	ID      int32 `json:"id"`
	Removed bool  `json:"removed"`
	// Tombstones is the lake's removed-but-not-compacted table count
	// after this removal (compaction reclaims their space).
	Tombstones int `json:"tombstones"`
}

// CompactResponse is the body of a successful POST /v1/compact.
type CompactResponse struct {
	// RemovedTables is how many tombstoned tables were reclaimed.
	RemovedTables int `json:"removed_tables"`
}

// validateIngestDirRequest checks the server-side ingest DTO shape.
func validateIngestDirRequest(req *IngestDirRequest) error {
	if req.Dir == "" {
		return berr.New(berr.CodeBadRequest, "service.ingest", "request carries no dir")
	}
	if req.BatchSize < 0 {
		return berr.New(berr.CodeBadRequest, "service.ingest", "batch_size must not be negative")
	}
	return nil
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Shards           int     `json:"shards"`
	Tables           int     `json:"tables"`
	Tombstones       int     `json:"tombstones"`
	Entries          int     `json:"entries"`
	DistinctValues   int     `json:"distinct_values"`
	NumericCells     int     `json:"numeric_cells"`
	AvgPostingLength float64 `json:"avg_posting_length"`
	MaxPostingLength int     `json:"max_posting_length"`
	DictBytes        int64   `json:"dict_bytes"`
	EstimatedBytes   int64   `json:"estimated_bytes"`
	AvgColumnsPerTbl float64 `json:"avg_columns_per_table"`
	AvgRowsPerTable  float64 `json:"avg_rows_per_table"`
	// Lazy-mapping figures (v4 indexes opened from a file): how many
	// shards are heap-resident and how large the mapped file is. For
	// heap-built indexes resident_shards == shards and mapped_bytes == 0.
	// Content stats (distinct values, postings, dict) cover resident
	// shards only when the index is partially mapped, so this probe never
	// forces the whole lake resident; estimated_bytes is the resident heap
	// footprint.
	ResidentShards int   `json:"resident_shards"`
	MappedBytes    int64 `json:"mapped_bytes"`
	// Result-cache counters (all zero when the cache is disabled; see
	// blend-serve's -cache flag).
	CacheCapacity      int    `json:"cache_capacity"`
	CacheEntries       int    `json:"cache_entries"`
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`

	// Generation counters: the current published generation and the
	// window of retained ones still addressable by as_of_generation.
	CurrentGeneration   uint64   `json:"current_generation"`
	RetainedGenerations []uint64 `json:"retained_generations"`

	// Ingest progress/throughput counters (see POST /v1/tables).
	IngestBatches        uint64 `json:"ingest_batches"`
	IngestTablesAdded    uint64 `json:"ingest_tables_added"`
	IngestRowsAdded      uint64 `json:"ingest_rows_added"`
	IngestTablesRemoved  uint64 `json:"ingest_tables_removed"`
	IngestCompactions    uint64 `json:"ingest_compactions"`
	IngestLastBatchTbls  int    `json:"ingest_last_batch_tables"`
	IngestLastBatchUsecs int64  `json:"ingest_last_batch_micros"`
	// IngestLastBatchPerSec is the last committed batch's throughput in
	// tables per second.
	IngestLastBatchPerSec float64 `json:"ingest_last_batch_tables_per_sec"`
}

// TableResponse is the body of GET /v1/tables/{id}: one table
// reconstructed from the unified index.
type TableResponse struct {
	ID      int32      `json:"id"`
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// ErrorBody is the JSON shape of every non-2xx response:
// {"error": {"code": "bad_plan", "op": "...", "detail": "..."}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries the typed error on the wire; Code is the stable name
// of the library's error code.
type ErrorInfo struct {
	Code   string `json:"code"`
	Op     string `json:"op,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// validateQueryRequest checks the DTO shape. Everything inside the plan
// document — well-formedness, node ids, k > 0, unknown node references,
// cycles — is validated by the core parser, which reports the typed
// bad_plan / unknown_node codes the handlers pass through.
func validateQueryRequest(req *QueryRequest) error {
	if len(req.Plan) == 0 {
		return berr.New(berr.CodeBadRequest, "service.query", "request carries no plan document")
	}
	return nil
}

// validateSeekRequest checks the seek DTO shape; the seeker document
// itself is validated by the core parser.
func validateSeekRequest(req *SeekRequest) error {
	if len(req.Seeker) == 0 {
		return berr.New(berr.CodeBadRequest, "service.seek", "request carries no seeker document")
	}
	return nil
}

// validateSQLRequest checks the raw SQL DTO shape.
func validateSQLRequest(req *SQLRequest) error {
	if req.Query == "" {
		return berr.New(berr.CodeBadRequest, "service.sql", "request carries no query")
	}
	if req.MaxRows < 0 {
		return berr.New(berr.CodeBadRequest, "service.sql", "max_rows must not be negative, got %d", req.MaxRows)
	}
	return nil
}
