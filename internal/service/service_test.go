package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"blend"
)

// fig1Discovery indexes the paper's Fig. 1 lake.
func fig1Discovery(opts ...blend.IndexOption) *blend.Discovery {
	t1 := blend.NewTable("T1", "Team", "Size")
	for _, r := range [][2]string{
		{"Finance", "31"}, {"Marketing", "28"}, {"HR", "33"}, {"IT", "92"}, {"Sales", "80"},
	} {
		t1.MustAppendRow(r[0], r[1])
	}
	mk := func(name, year, itLead string) *blend.Table {
		t := blend.NewTable(name, "Lead", "Year", "Team")
		for _, r := range [][2]string{
			{itLead, "IT"}, {"Draco Malfoy", "Marketing"}, {"Harry Potter", "Finance"},
			{"Cho Chang", "R&D"}, {"Luna Lovegood", "Sales"}, {"Firenze", "HR"},
		} {
			t.MustAppendRow(r[0], year, r[1])
		}
		return t
	}
	lake := []*blend.Table{t1, mk("T2", "2022", "Tom Riddle"), mk("T3", "2024", "Ronald Weasley")}
	for _, t := range lake {
		t.InferKinds()
	}
	return blend.IndexTables(blend.ColumnStore, lake, opts...)
}

const example1Plan = `{
  "output": "intersect",
  "nodes": [
    {"id": "P_examples", "seeker": {"kind": "mc", "tuples": [["HR","Firenze"]], "k": 10}},
    {"id": "N_examples", "seeker": {"kind": "mc", "tuples": [["IT","Tom Riddle"]], "k": 10}},
    {"id": "exclude", "combiner": {"kind": "difference", "k": 10},
     "inputs": ["P_examples", "N_examples"]},
    {"id": "dep", "seeker": {"kind": "sc",
     "values": ["HR","Marketing","Finance","IT","R&D","Sales"], "k": 10}},
    {"id": "intersect", "combiner": {"kind": "intersect", "k": 10},
     "inputs": ["exclude", "dep"]}
  ]
}`

func newTestServer(t testing.TB, d *blend.Discovery) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(d, Options{DefaultTimeout: 30 * time.Second}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestQueryMatchesInProcessRun is the acceptance check: /v1/query answers
// a plan-JSON document with the same hits as an in-process Run.
func TestQueryMatchesInProcessRun(t *testing.T) {
	d := fig1Discovery()
	srv := newTestServer(t, d)

	plan, err := blend.ParsePlanJSON(strings.NewReader(example1Plan))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, srv.URL+"/v1/query", fmt.Sprintf(`{"plan": %s}`, example1Plan))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got QueryResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Hits) != len(ref.Output) {
		t.Fatalf("hits = %v, want %v", got.Hits, ref.Output)
	}
	for i, h := range got.Hits {
		if h.TableID != ref.Output[i].TableID || h.Score != ref.Output[i].Score || h.Table != ref.Tables[i] {
			t.Fatalf("hit %d = %+v, want %+v (%s)", i, h, ref.Output[i], ref.Tables[i])
		}
	}
	if !reflect.DeepEqual(got.SeekerOrder, ref.SeekerOrder) {
		t.Fatalf("seeker order %v, want %v", got.SeekerOrder, ref.SeekerOrder)
	}
	if len(got.SeekerMicros) != 3 {
		t.Fatalf("seeker timings = %v", got.SeekerMicros)
	}
}

// TestQueryConcurrentRequests exercises concurrent request handling over
// a sharded store, every plan on the scheduler.
func TestQueryConcurrentRequests(t *testing.T) {
	srv := newTestServer(t, fig1Discovery(blend.WithShards(2)))
	body := fmt.Sprintf(`{"plan": %s, "options": {"explain": true}}`, example1Plan)
	type result struct {
		qr  QueryResponse
		err error
	}
	done := make(chan result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			var res result
			resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				res.err = err
				done <- res
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				res.err = fmt.Errorf("status %d", resp.StatusCode)
			} else {
				res.err = json.NewDecoder(resp.Body).Decode(&res.qr)
			}
			done <- res
		}()
	}
	for i := 0; i < 8; i++ {
		res := <-done
		if res.err != nil {
			t.Fatalf("concurrent request %d: %v", i, res.err)
		}
		if len(res.qr.Hits) == 0 || res.qr.Hits[0].Table != "T3" {
			t.Fatalf("concurrent response %d = %+v", i, res.qr)
		}
		if len(res.qr.SQLByNode) != 3 {
			t.Fatalf("explain missing: %+v", res.qr.SQLByNode)
		}
	}
}

// TestQueryRejectsMaxWorkers pins the wire contract: every plan runs on
// the scheduler at the server's GOMAXPROCS width, so a body still carrying
// the retired "max_workers" option is an unknown field — 400 bad_request.
func TestQueryRejectsMaxWorkers(t *testing.T) {
	srv := newTestServer(t, fig1Discovery())
	resp, raw := postJSON(t, srv.URL+"/v1/query",
		fmt.Sprintf(`{"plan": %s, "options": {"max_workers": 4}}`, example1Plan))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "bad_request" || !strings.Contains(eb.Error.Detail, `unknown field "max_workers"`) {
		t.Fatalf("error = %+v, want bad_request naming the unknown field", eb.Error)
	}
}

// TestQueryExplainReportsMCNativePath pins the explain attribution over
// HTTP: with explain on, /v1/query reports path=native for the plan's MC
// (and SC) seeker nodes, and path=sql on a service whose engine forces
// the SQL fallback.
func TestQueryExplainReportsMCNativePath(t *testing.T) {
	body := fmt.Sprintf(`{"plan": %s, "options": {"explain": true}}`, example1Plan)
	for _, tc := range []struct {
		name string
		opts []blend.IndexOption
		want string
	}{
		{"native", nil, "native"},
		{"sql-fallback", []blend.IndexOption{blend.WithoutNativeExec()}, "sql"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, fig1Discovery(tc.opts...))
			resp, raw := postJSON(t, srv.URL+"/v1/query", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var qr QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatal(err)
			}
			for _, node := range []string{"P_examples", "N_examples", "dep"} {
				if got := qr.PathByNode[node]; got != tc.want {
					t.Fatalf("path_by_node[%s] = %q, want %q (full: %v)",
						node, got, tc.want, qr.PathByNode)
				}
			}
		})
	}
}

// TestQueryExplainReportsCorrAndSemanticPaths completes the per-kind path
// attribution over HTTP: a plan mixing a correlation and a semantic node
// must report path=native (resp. path=sql under the forced fallback) for
// the correlation node, while the semantic node reports path=ann on both
// engines — ANN has no SQL form to fall back to.
func TestQueryExplainReportsCorrAndSemanticPaths(t *testing.T) {
	const plan = `{
	  "output": "merge",
	  "nodes": [
	    {"id": "corr", "seeker": {"kind": "correlation",
	     "keys": ["Finance","Marketing","HR","IT","Sales"],
	     "targets": [31, 28, 33, 92, 80], "k": 5}},
	    {"id": "sem", "seeker": {"kind": "semantic",
	     "values": ["Harry Potter","Luna Lovegood"], "k": 5}},
	    {"id": "merge", "combiner": {"kind": "union", "k": 5},
	     "inputs": ["corr", "sem"]}
	  ]
	}`
	body := fmt.Sprintf(`{"plan": %s, "options": {"explain": true}}`, plan)
	for _, tc := range []struct {
		name     string
		opts     []blend.IndexOption
		wantCorr string
	}{
		{"native", nil, "native"},
		{"sql-fallback", []blend.IndexOption{blend.WithoutNativeExec()}, "sql"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := newTestServer(t, fig1Discovery(tc.opts...))
			resp, raw := postJSON(t, srv.URL+"/v1/query", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var qr QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatal(err)
			}
			if got := qr.PathByNode["corr"]; got != tc.wantCorr {
				t.Fatalf("path_by_node[corr] = %q, want %q (full: %v)", got, tc.wantCorr, qr.PathByNode)
			}
			if got := qr.PathByNode["sem"]; got != "ann" {
				t.Fatalf("path_by_node[sem] = %q, want %q (full: %v)", got, "ann", qr.PathByNode)
			}
		})
	}
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %s", body)
	}
	return eb.Error.Code
}

// TestQueryValidation covers the DTO validation matrix: malformed plan,
// unknown node id, k <= 0, plus request-shape errors.
func TestQueryValidation(t *testing.T) {
	srv := newTestServer(t, fig1Discovery())
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed body", `{`, http.StatusBadRequest, "bad_request"},
		{"unknown field", `{"plam": {}}`, http.StatusBadRequest, "bad_request"},
		{"no plan", `{}`, http.StatusBadRequest, "bad_request"},
		{"malformed plan", `{"plan": "nope"}`, http.StatusBadRequest, "bad_plan"},
		{"empty plan", `{"plan": {"nodes": []}}`, http.StatusBadRequest, "bad_plan"},
		{"k zero", `{"plan": {"nodes": [{"id": "a", "seeker": {"kind": "sc", "values": ["x"], "k": 0}}]}}`,
			http.StatusBadRequest, "bad_plan"},
		{"k negative combiner", `{"plan": {"nodes": [
			{"id": "a", "seeker": {"kind": "sc", "values": ["x"], "k": 5}},
			{"id": "c", "combiner": {"kind": "union", "k": -1}, "inputs": ["a"]}]}}`,
			http.StatusBadRequest, "bad_plan"},
		{"unknown node id", `{"plan": {"nodes": [
			{"id": "a", "seeker": {"kind": "sc", "values": ["x"], "k": 5}},
			{"id": "c", "combiner": {"kind": "union", "k": 5}, "inputs": ["a", "ghost"]}]}}`,
			http.StatusBadRequest, "unknown_node"},
		{"unknown output", fmt.Sprintf(`{"plan": {"output": "ghost", "nodes": [
			{"id": "a", "seeker": {"kind": "sc", "values": ["x"], "k": 5}}]}}`),
			http.StatusBadRequest, "unknown_node"},
		{"unknown seeker kind", `{"plan": {"nodes": [{"id": "a", "seeker": {"kind": "warp", "k": 5}}]}}`,
			http.StatusBadRequest, "bad_plan"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, srv.URL+"/v1/query", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if code := errorCode(t, body); code != tc.code {
				t.Fatalf("code = %q, want %q (%s)", code, tc.code, body)
			}
		})
	}
}

func TestSeekEndpoint(t *testing.T) {
	d := fig1Discovery()
	srv := newTestServer(t, d)
	resp, body := postJSON(t, srv.URL+"/v1/seek",
		`{"seeker": {"kind": "kw", "values": ["Firenze"], "k": 5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SeekResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	ref, err := d.Seek(context.Background(), blend.KW([]string{"Firenze"}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) != len(ref) {
		t.Fatalf("seek hits = %v, want %v", sr.Hits, ref)
	}
	// Bad seeker documents carry typed codes.
	resp, body = postJSON(t, srv.URL+"/v1/seek", `{"seeker": {"kind": "kw", "values": ["x"], "k": 0}}`)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "bad_plan" {
		t.Fatalf("k=0 seek: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/v1/seek", `{}`)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "bad_request" {
		t.Fatalf("empty seek: %d %s", resp.StatusCode, body)
	}
}

func TestSQLEndpoint(t *testing.T) {
	srv := newTestServer(t, fig1Discovery())
	resp, body := postJSON(t, srv.URL+"/v1/sql",
		`{"query": "SELECT TableId, COUNT(*) AS n FROM AllTables GROUP BY TableId ORDER BY TableId ASC", "max_rows": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SQLResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.TotalRows != 3 || len(sr.Rows) != 2 || len(sr.Columns) != 2 {
		t.Fatalf("sql response = %+v", sr)
	}
	resp, body = postJSON(t, srv.URL+"/v1/sql", `{"query": "SELEKT"}`)
	if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "bad_query" {
		t.Fatalf("bad sql: %d %s", resp.StatusCode, body)
	}
}

func TestStatsAndTables(t *testing.T) {
	srv := newTestServer(t, fig1Discovery())
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Tables != 3 || st.Shards != 1 {
		t.Fatalf("stats = %+v", st)
	}

	resp, err = http.Get(srv.URL + "/v1/tables/0")
	if err != nil {
		t.Fatal(err)
	}
	var tr TableResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.Name != "T1" || len(tr.Columns) != 2 || len(tr.Rows) != 5 {
		t.Fatalf("table = %+v", tr)
	}

	for path, wantStatus := range map[string]int{
		"/v1/tables/99":  http.StatusNotFound,
		"/v1/tables/x":   http.StatusBadRequest,
		"/v1/tables/-1":  http.StatusNotFound,
		"/v1/nosuchpath": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s status = %d, want %d", path, resp.StatusCode, wantStatus)
		}
	}
}

// TestRequestTimeout verifies the per-request deadline surfaces as the
// typed deadline code with a 504.
func TestRequestTimeout(t *testing.T) {
	d := fig1Discovery()
	srv := httptest.NewServer(New(d, Options{DefaultTimeout: time.Nanosecond}).Handler())
	defer srv.Close()
	resp, body := postJSON(t, srv.URL+"/v1/query", fmt.Sprintf(`{"plan": %s}`, example1Plan))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if code := errorCode(t, body); code != "deadline_exceeded" {
		t.Fatalf("code = %q", code)
	}
}

func TestHealthz(t *testing.T) {
	srv := newTestServer(t, fig1Discovery())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}
