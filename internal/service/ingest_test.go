package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blend"
)

// Tests for the table-lifecycle endpoints: POST /v1/tables (CSV upload +
// server-side dir ingest), DELETE /v1/tables/{id}, POST /v1/compact, and
// the ingest counters in /v1/stats.

func newIngestServer(t testing.TB, d *blend.Discovery, opts Options) *httptest.Server {
	t.Helper()
	if opts.DefaultTimeout == 0 {
		opts.DefaultTimeout = 30 * time.Second
	}
	srv := httptest.NewServer(New(d, opts).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func doReq(t testing.TB, method, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServiceCSVUpload(t *testing.T) {
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{})

	csv := "Team,Metric\nHR,7\nOps,9\n"
	resp, body := doReq(t, "POST", srv.URL+"/v1/tables?name=metrics", "text/csv", csv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TablesAdded != 1 || ir.RowsAdded != 2 || len(ir.TableIDs) != 1 {
		t.Fatalf("ingest response = %+v", ir)
	}
	if d.TableIDByName("metrics") != ir.TableIDs[0] {
		t.Fatal("uploaded table not resolvable")
	}

	// Missing name: 400.
	resp, _ = doReq(t, "POST", srv.URL+"/v1/tables", "text/csv", csv)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing name status %d", resp.StatusCode)
	}
	// Unparseable body: 400.
	resp, _ = doReq(t, "POST", srv.URL+"/v1/tables?name=bad", "text/csv", "a,b\n\"unclosed\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload status %d", resp.StatusCode)
	}
	// Duplicate name: 409 with the typed code.
	resp, body = doReq(t, "POST", srv.URL+"/v1/tables?name=metrics", "text/csv", csv)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status %d: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "duplicate_table" {
		t.Fatalf("duplicate code = %q", eb.Error.Code)
	}
	// Non-CSV content falls through to the dir-ingest handler, which this
	// server has disabled: 400 either way, with a JSON error body.
	resp, _ = doReq(t, "POST", srv.URL+"/v1/tables", "application/xml", "<x/>")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad content-type status %d", resp.StatusCode)
	}
}

func TestServiceDirIngest(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf("team,size\nHR,%d\nSrv%d,%d\n", i, i, 30+i)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("srv%02d.csv", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{AllowDirIngest: true})

	req := fmt.Sprintf(`{"dir": %q}`, dir)
	resp, body := doReq(t, "POST", srv.URL+"/v1/tables", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dir ingest status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TablesAdded != 5 || ir.Batches != 1 {
		t.Fatalf("dir ingest response = %+v", ir)
	}
	if d.NumTables() != 3+5 {
		t.Fatalf("NumTables = %d", d.NumTables())
	}

	// Stats expose the ingest counters.
	resp, body = doReq(t, "GET", srv.URL+"/v1/stats", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.IngestTablesAdded != 5 || st.IngestBatches != 1 || st.IngestRowsAdded != 10 {
		t.Fatalf("stats ingest counters = %+v", st)
	}
	if st.IngestLastBatchTbls != 5 { // 5 tables fit one 256-table batch
		t.Fatalf("last batch tables = %d", st.IngestLastBatchTbls)
	}

	// Missing dir field: 400.
	resp, _ = doReq(t, "POST", srv.URL+"/v1/tables", "application/json", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty dir status %d", resp.StatusCode)
	}
	// A dir that does not exist, or holds no CSV file, is the client's
	// mistake: 400 bad_request, not a 500, and nothing ingested.
	for _, bad := range []string{filepath.Join(dir, "no-such-dir"), t.TempDir()} {
		resp, body = doReq(t, "POST", srv.URL+"/v1/tables", "application/json", fmt.Sprintf(`{"dir": %q}`, bad))
		if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
			t.Fatalf("dir %s: %d %s, want 400 bad_request", bad, resp.StatusCode, body)
		}
	}
	if d.NumTables() != 3+5 {
		t.Fatalf("failed ingests changed the lake: %d tables", d.NumTables())
	}

	// Disabled server: 400 with explanation.
	srv2 := newIngestServer(t, fig1Discovery(), Options{AllowDirIngest: false})
	resp, _ = doReq(t, "POST", srv2.URL+"/v1/tables", "application/json", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("disabled dir ingest status %d", resp.StatusCode)
	}
}

// TestServiceDirIngestRejectsWorkers pins the wire contract: ingest
// parallelism is not settable per request, so a body still carrying the
// retired "workers" field is an unknown field — 400 bad_request, with
// nothing ingested.
func TestServiceDirIngestRejectsWorkers(t *testing.T) {
	rejectsRetiredField(t, "workers")
}

// TestServiceDirIngestRejectsBatchSize: the commit batch is fixed, so the
// retired "batch_size" field is an unknown field too.
func TestServiceDirIngestRejectsBatchSize(t *testing.T) {
	rejectsRetiredField(t, "batch_size")
}

// rejectsRetiredField posts a dir ingest whose body carries field and
// requires a 400 bad_request naming it, with nothing ingested.
func rejectsRetiredField(t *testing.T, field string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "w.csv"), []byte("team,size\nHR,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{AllowDirIngest: true})
	before := d.NumTables()
	resp, body := doReq(t, "POST", srv.URL+"/v1/tables", "application/json",
		fmt.Sprintf(`{"dir": %q, %q: 2}`, dir, field))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_request" || !strings.Contains(eb.Error.Detail, fmt.Sprintf("unknown field %q", field)) {
		t.Fatalf("error = %+v, want bad_request naming the unknown field", eb.Error)
	}
	if d.NumTables() != before {
		t.Fatalf("rejected request ingested tables: %d -> %d", before, d.NumTables())
	}
}

func TestServiceRemoveAndCompact(t *testing.T) {
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{})

	id := d.TableIDByName("T2")
	resp, body := doReq(t, "DELETE", fmt.Sprintf("%s/v1/tables/%d", srv.URL, id), "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, body)
	}
	var rr RemoveResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Removed || rr.Tombstones != 1 {
		t.Fatalf("remove response = %+v", rr)
	}
	// The removed table 404s on GET and on a second DELETE.
	resp, _ = doReq(t, "GET", fmt.Sprintf("%s/v1/tables/%d", srv.URL, id), "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get removed table status %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "DELETE", fmt.Sprintf("%s/v1/tables/%d", srv.URL, id), "", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status %d", resp.StatusCode)
	}
	// Bad id: 400.
	resp, _ = doReq(t, "DELETE", srv.URL+"/v1/tables/xyz", "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", resp.StatusCode)
	}

	// healthz agrees with /v1/stats while the tombstone is pending.
	resp, body = doReq(t, "GET", srv.URL+"/healthz", "", "")
	var hz struct {
		Tables int `json:"tables"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Tables != 2 {
		t.Fatalf("healthz tables = %d, want 2 live", hz.Tables)
	}

	// Compact reclaims the tombstone.
	resp, body = doReq(t, "POST", srv.URL+"/v1/compact", "application/json", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", resp.StatusCode)
	}
	var cr CompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.RemovedTables != 1 {
		t.Fatalf("compact response = %+v", cr)
	}
	if d.NumTables() != 2 || d.Stats().Tombstones != 0 {
		t.Fatalf("post-compact lake: %d tables, %d tombstones", d.NumTables(), d.Stats().Tombstones)
	}
}

// failingJournal is a write-ahead log whose every append fails.
type failingJournal struct{}

func (failingJournal) AddTables([]*blend.Table) error { return errDiskFull }
func (failingJournal) RemoveTable(int32) error        { return errDiskFull }
func (failingJournal) Compact() error                 { return errDiskFull }
func (failingJournal) Checkpoint(uint64) error        { return errDiskFull }

var errDiskFull = errors.New("no space left on device")

// TestServiceCompactJournalFailure: when the write-ahead log cannot record
// a compaction, POST /v1/compact answers 500 internal and the server keeps
// serving the unchanged generation.
func TestServiceCompactJournalFailure(t *testing.T) {
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{})
	if err := d.RemoveTable(d.TableIDByName("T2")); err != nil {
		t.Fatal(err)
	}
	gen := d.Generation()
	d.Engine().SetJournal(failingJournal{})
	resp, body := doReq(t, "POST", srv.URL+"/v1/compact", "application/json", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("compact status %d, want 500: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "internal" || !strings.Contains(eb.Error.Detail, errDiskFull.Error()) {
		t.Fatalf("error = %+v, want internal naming the cause", eb.Error)
	}
	if d.Generation() != gen || d.Stats().Tombstones != 1 {
		t.Fatalf("failed compaction published: generation %d (want %d), %d tombstones",
			d.Generation(), gen, d.Stats().Tombstones)
	}
	resp, _ = doReq(t, "GET", srv.URL+"/healthz", "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after failed compaction: %d", resp.StatusCode)
	}
}

// TestTableIDOutOfRange checks that a table id beyond 32 bits is a 400
// bad_request on GET and DELETE, and removes nothing: it must not wrap
// around to a small id (4294967296 would wrap to table 0, T1).
func TestTableIDOutOfRange(t *testing.T) {
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{})
	for _, id := range []string{"4294967296", "2147483648", "-2147483649"} {
		for _, method := range []string{"GET", "DELETE"} {
			resp, body := doReq(t, method, srv.URL+"/v1/tables/"+id, "", "")
			if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
				t.Fatalf("%s /v1/tables/%s: %d %s, want 400 bad_request", method, id, resp.StatusCode, body)
			}
		}
	}
	if d.LiveTables() != 3 || d.TableIDByName("T1") != 0 {
		t.Fatalf("out-of-range deletes changed the lake: %d live tables, T1 at %d",
			d.LiveTables(), d.TableIDByName("T1"))
	}
}

// TestAsOfHitsNamedAtTheirGeneration removes T1 and compacts, which
// renumbers T2 and T3 to ids 0 and 1, then asks /v1/seek and /v1/query at
// generation 1. Their hits carry generation-1 ids, so they must be named
// as generation 1 named them, not as the current generation does.
func TestAsOfHitsNamedAtTheirGeneration(t *testing.T) {
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{})
	if err := d.RemoveTable(d.TableIDByName("T1")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	gen1 := []string{"T1", "T2", "T3"} // the table ids of generation 1
	seeker := `{"kind": "sc", "values": ["HR", "IT", "Sales"], "k": 5}`
	opts := `"options": {"as_of_generation": 1}`
	var seek SeekResponse
	var query QueryResponse
	for _, c := range []struct {
		path, body string
		out        any
		hits       *[]Hit
	}{
		{"/v1/seek", `{"seeker": ` + seeker + `, ` + opts + `}`, &seek, &seek.Hits},
		{"/v1/query", `{"plan": {"nodes": [{"id": "s", "seeker": ` + seeker + `}], "output": "s"}, ` + opts + `}`,
			&query, &query.Hits},
	} {
		resp, body := doReq(t, "POST", srv.URL+c.path, "application/json", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, c.out); err != nil {
			t.Fatal(err)
		}
		if len(*c.hits) != 3 {
			t.Fatalf("%s: hits %+v, want all three tables", c.path, *c.hits)
		}
		for _, h := range *c.hits {
			if h.Table != gen1[h.TableID] {
				t.Fatalf("%s: hit %d named %q, generation 1 names it %q", c.path, h.TableID, h.Table, gen1[h.TableID])
			}
		}
	}
}
