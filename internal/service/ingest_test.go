package service

import (
	"encoding/json"
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

	req := fmt.Sprintf(`{"dir": %q, "batch_size": 2}`, dir)
	resp, body := doReq(t, "POST", srv.URL+"/v1/tables", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dir ingest status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.TablesAdded != 5 || ir.Batches != 3 {
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
	if st.IngestTablesAdded != 5 || st.IngestBatches != 3 || st.IngestRowsAdded != 10 {
		t.Fatalf("stats ingest counters = %+v", st)
	}
	if st.IngestLastBatchTbls != 1 { // 5 tables in batches of 2 → last holds 1
		t.Fatalf("last batch tables = %d", st.IngestLastBatchTbls)
	}

	// Missing dir field: 400.
	resp, _ = doReq(t, "POST", srv.URL+"/v1/tables", "application/json", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty dir status %d", resp.StatusCode)
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
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "w.csv"), []byte("team,size\nHR,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := fig1Discovery()
	srv := newIngestServer(t, d, Options{AllowDirIngest: true})
	before := d.NumTables()
	resp, body := doReq(t, "POST", srv.URL+"/v1/tables", "application/json",
		fmt.Sprintf(`{"dir": %q, "workers": 2}`, dir))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_request" || !strings.Contains(eb.Error.Detail, `unknown field "workers"`) {
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
