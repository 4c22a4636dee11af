package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"blend"
	"blend/internal/berr"
)

// maxSQLRows caps /v1/sql responses; a request's max_rows may lower it.
const maxSQLRows = 1000

// maxUploadBytes caps the request body of a CSV upload (64 MiB).
const maxUploadBytes = 64 << 20

// Options configure a Service. Plans need no execution settings: the
// library runs every plan on its scheduler at GOMAXPROCS width. Ingest
// needs none either: an upload commits as one batch, and a directory
// ingest parses GOMAXPROCS files at once and commits the library's fixed
// 256-table batches.
type Options struct {
	// DefaultTimeout bounds every request's execution; a request's
	// timeout_millis may shorten but never extend it. Zero means no
	// server-side bound.
	DefaultTimeout time.Duration
	// AllowDirIngest enables the server-side directory form of
	// POST /v1/tables (JSON {"dir": …}), which makes the server read CSV
	// files from its own filesystem. CSV uploads are always enabled.
	AllowDirIngest bool
}

// Service exposes one Discovery over HTTP: the versioned discovery API of
// cmd/blend-serve. All handlers execute under the request's context, so a
// disconnecting client or an expired deadline cancels the plan mid-run,
// and all of them run concurrently — each query pins a generation
// snapshot at entry and executes lock-free against it, so any number of
// simultaneous queries (and ingests) proceed without blocking each other.
type Service struct {
	d    *blend.Discovery
	opts Options
}

// New wraps a Discovery for serving.
func New(d *blend.Discovery, opts Options) *Service {
	return &Service{d: d, opts: opts}
}

// Handler returns the versioned route table.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/seek", s.handleSeek)
	mux.HandleFunc("POST /v1/sql", s.handleSQL)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/tables", s.handleIngest)
	mux.HandleFunc("GET /v1/tables/{id}", s.handleTable)
	mux.HandleFunc("DELETE /v1/tables/{id}", s.handleRemoveTable)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// LiveTables, so the probe agrees with /v1/stats' tables field
		// while tombstones await compaction.
		json.NewEncoder(w).Encode(map[string]any{"ok": true, "tables": s.d.LiveTables()})
	})
	return mux
}

// decodeJSON strictly decodes a request body into dst, rejecting unknown
// fields so DTO typos fail loudly instead of being ignored.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return berr.New(berr.CodeBadRequest, "service.decode", "malformed request body: %v", err)
	}
	return nil
}

// requestContext derives the execution context for one request: the
// request's own context (canceled when the client disconnects) bounded by
// the effective timeout.
func (s *Service) requestContext(r *http.Request, dto *RunOptionsDTO) (context.Context, context.CancelFunc) {
	timeout := s.opts.DefaultTimeout
	if dto != nil && dto.TimeoutMillis > 0 {
		req := time.Duration(dto.TimeoutMillis) * time.Millisecond
		if timeout == 0 || req < timeout {
			timeout = req
		}
	}
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return r.Context(), func() {}
}

// runOptions folds a DTO into library run options.
func runOptions(dto *RunOptionsDTO) []blend.RunOption {
	var opts []blend.RunOption
	if dto != nil && dto.NoOptimize {
		opts = append(opts, blend.WithoutOptimizer())
	}
	if dto != nil && dto.Explain {
		opts = append(opts, blend.WithExplain())
	}
	if dto != nil && dto.AsOfGeneration > 0 {
		opts = append(opts, blend.WithAsOf(dto.AsOfGeneration))
	}
	return opts
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateQueryRequest(&req); err != nil {
		writeError(w, err)
		return
	}
	plan, err := blend.ParsePlanJSON(bytes.NewReader(req.Plan))
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.Options)
	defer cancel()
	res, err := s.d.Run(ctx, plan, runOptions(req.Options)...)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := QueryResponse{
		Hits:            wireHits(res.Output, res.Tables),
		SeekerOrder:     res.SeekerOrder,
		CompletionOrder: res.CompletionOrder,
		PeakConcurrency: res.PeakConcurrency,
		SQLByNode:       res.SQLByNode,
		PathByNode:      res.PathByNode,
		DurationMicros:  res.Duration.Microseconds(),
	}
	if len(res.Stats) > 0 {
		resp.SeekerMicros = make(map[string]int64, len(res.Stats))
		for id, st := range res.Stats {
			resp.SeekerMicros[id] = st.Duration.Microseconds()
		}
	}
	writeJSON(w, resp)
}

func (s *Service) handleSeek(w http.ResponseWriter, r *http.Request) {
	var req SeekRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateSeekRequest(&req); err != nil {
		writeError(w, err)
		return
	}
	seeker, err := blend.ParseSeekerJSON(bytes.NewReader(req.Seeker))
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, req.Options)
	defer cancel()
	start := time.Now()
	// Pin the generation here rather than inside Seek, so the hits are
	// named at the generation they were found at.
	var asOf uint64
	if req.Options != nil {
		asOf = req.Options.AsOfGeneration
	}
	sn, err := s.d.SnapshotAt(asOf)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sn.Release()
	hits, err := sn.Seek(ctx, seeker, runOptions(req.Options)...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, SeekResponse{Hits: wireHits(hits, sn.TableNames(hits)), DurationMicros: time.Since(start).Microseconds()})
}

func (s *Service) handleSQL(w http.ResponseWriter, r *http.Request) {
	var req SQLRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateSQLRequest(&req); err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := s.requestContext(r, nil)
	defer cancel()
	res, err := s.d.Engine().ExecRawSQL(ctx, req.Query)
	if err != nil {
		writeError(w, err)
		return
	}
	limit := req.MaxRows
	if limit <= 0 || limit > maxSQLRows {
		limit = maxSQLRows
	}
	resp := SQLResponse{Columns: res.Columns(), TotalRows: res.NumRows(), Rows: [][]string{}}
	for i := 0; i < res.NumRows() && i < limit; i++ {
		row := make([]string, len(resp.Columns))
		for c := range row {
			row[c] = res.Cell(i, c).String()
		}
		resp.Rows = append(resp.Rows, row)
	}
	writeJSON(w, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.d.Stats()
	cs := s.d.CacheStats()
	ms := s.d.MaintStats()
	writeJSON(w, StatsResponse{
		Shards:           st.Shards,
		Tables:           st.Tables,
		Tombstones:       st.Tombstones,
		Entries:          st.Entries,
		DistinctValues:   st.DistinctValues,
		NumericCells:     st.NumericCells,
		AvgPostingLength: st.AvgPostingLength,
		MaxPostingLength: st.MaxPostingLength,
		DictBytes:        st.DictBytes,
		EstimatedBytes:   st.EstimatedBytes,
		AvgColumnsPerTbl: st.AvgColumnsPerTbl,
		AvgRowsPerTable:  st.AvgRowsPerTable,

		CurrentGeneration:   s.d.Generation(),
		RetainedGenerations: s.d.RetainedGenerations(),

		CacheCapacity:      cs.Capacity,
		CacheEntries:       cs.Entries,
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
		CacheInvalidations: cs.Invalidations,

		IngestBatches:         ms.Batches,
		IngestTablesAdded:     ms.TablesAdded,
		IngestRowsAdded:       ms.RowsAdded,
		IngestTablesRemoved:   ms.TablesRemoved,
		IngestCompactions:     ms.Compactions,
		IngestLastBatchTbls:   ms.LastBatchTables,
		IngestLastBatchUsecs:  ms.LastBatchDuration.Microseconds(),
		IngestLastBatchPerSec: perSec(ms.LastBatchTables, ms.LastBatchDuration),
	})
}

// handleIngest serves POST /v1/tables in its two forms:
//
//   - Content-Type text/csv: the body is one CSV table, named by the
//     required ?name= query parameter.
//   - anything else (curl -d defaults included): a JSON {"dir": …}
//     document making the server bulk-load a CSV directory it can read
//     (requires AllowDirIngest). The strict decoder rejects non-JSON
//     bodies with a clear error.
//
// Both commit through the engine's batched maintenance path, so the whole
// upload (or each 256-table directory batch) is atomic and publishes one
// generation.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	if strings.TrimSpace(ct) == "text/csv" {
		s.handleIngestCSV(w, r)
		return
	}
	s.handleIngestDir(w, r)
}

func (s *Service) handleIngestCSV(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, berr.New(berr.CodeBadRequest, "service.ingest",
			"csv upload requires a ?name= query parameter"))
		return
	}
	start := time.Now()
	t, err := blend.ReadCSV(name, http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		writeError(w, berr.New(berr.CodeBadRequest, "service.ingest", "parse csv upload: %v", err))
		return
	}
	ids, err := s.d.AddTables(r.Context(), []*blend.Table{t})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, IngestResponse{
		TableIDs:       ids,
		TablesAdded:    len(ids),
		RowsAdded:      t.NumRows(),
		Batches:        1,
		DurationMicros: time.Since(start).Microseconds(),
		TablesPerSec:   perSec(len(ids), time.Since(start)),
	})
}

func (s *Service) handleIngestDir(w http.ResponseWriter, r *http.Request) {
	if !s.opts.AllowDirIngest {
		writeError(w, berr.New(berr.CodeBadRequest, "service.ingest",
			"server-side directory ingest is disabled (start the server with dir ingest allowed)"))
		return
	}
	var req IngestDirRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateIngestDirRequest(&req); err != nil {
		writeError(w, err)
		return
	}
	var opts []blend.IngestOption
	if req.SkipBad {
		opts = append(opts, blend.WithSkipBadFiles())
	}
	report, err := s.d.IngestCSVDir(r.Context(), req.Dir, opts...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, IngestResponse{
		TableIDs:       report.TableIDs,
		TablesAdded:    report.TablesAdded,
		RowsAdded:      report.RowsAdded,
		Batches:        report.Batches,
		SkippedFiles:   report.SkippedFiles,
		DurationMicros: report.Duration.Microseconds(),
		TablesPerSec:   report.Throughput(),
	})
}

// tableID parses the {id} path segment of /v1/tables/{id}: a decimal
// table id that fits in 32 bits, or a typed bad-request error.
func tableID(r *http.Request) (int32, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseInt(raw, 10, 32)
	if errors.Is(err, strconv.ErrRange) {
		return 0, berr.New(berr.CodeBadRequest, "service.tables", "table id %s is out of range", raw)
	}
	if err != nil {
		return 0, berr.New(berr.CodeBadRequest, "service.tables", "table id %q is not a number", raw)
	}
	return int32(id), nil
}

func (s *Service) handleRemoveTable(w http.ResponseWriter, r *http.Request) {
	id, err := tableID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.d.RemoveTable(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, RemoveResponse{ID: id, Removed: true, Tombstones: s.d.Stats().Tombstones})
}

func (s *Service) handleCompact(w http.ResponseWriter, r *http.Request) {
	removed, err := s.d.Compact()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, CompactResponse{RemovedTables: removed})
}

// perSec converts a count over a duration into a rate (0 when either is).
func perSec(n int, d time.Duration) float64 {
	if n == 0 || d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func (s *Service) handleTable(w http.ResponseWriter, r *http.Request) {
	id, err := tableID(r)
	if err != nil {
		writeError(w, err)
		return
	}
	t := s.d.TableByID(id)
	if t == nil {
		writeError(w, berr.New(berr.CodeNotFound, "service.tables", "no table with id %d", id))
		return
	}
	resp := TableResponse{ID: id, Name: t.Name, Rows: [][]string{}}
	for c := 0; c < t.NumCols(); c++ {
		resp.Columns = append(resp.Columns, t.Columns[c].Name)
	}
	for row := 0; row < t.NumRows(); row++ {
		cells := make([]string, t.NumCols())
		for c := range cells {
			cells[c] = t.Cell(row, c)
		}
		resp.Rows = append(resp.Rows, cells)
	}
	writeJSON(w, resp)
}

// wireHits pairs engine hits with their names (resolved at the generation
// the hits were found at) as wire hits.
func wireHits(h blend.Hits, names []string) []Hit {
	out := make([]Hit, len(h))
	for i, t := range h {
		out[i] = Hit{TableID: t.TableID, Table: names[i], Score: t.Score}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
