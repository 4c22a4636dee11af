package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blend"
	"blend/internal/service"
	"blend/internal/table"
)

const (
	// poolSize is the number of distinct read requests, four times the
	// result cache, so that the cache cannot hold the working set.
	poolSize  = 2048
	cacheSize = 512
	// hotEpoch reads share one hot set; the next is hotStride requests on.
	hotEpoch, hotStride = 50, 7
	retention           = 4
	// Open-loop write schedule: independent uploaders do not wait for the
	// server, so their rate is fixed.
	uploadEvery = 50 * time.Millisecond
	deleteEvery = 500 * time.Millisecond
	uploadRows  = 200
)

// readReq is one pre-generated read request, with the library call it
// stands for, so that the same request can be replayed in process.
type readReq struct {
	kind   string // one of readKinds
	path   string
	body   []byte
	plan   *blend.Plan
	seeker blend.Seeker
}

// readKinds are the kinds of read request: the five task plans of the
// paper's Table III on /v1/query, and /v1/seek.
var readKinds = []string{"union", "imputation", "negative", "feature", "multi", "seek"}

const seekKind = 5

// readCycle is the fixed order in which the reader draws request kinds:
// 70 % plans, the five kinds in equal shares, 30 % seeks. The plans differ
// tenfold in cost, so a random mix would make a window's rate depend on
// how many heavy ones it happened to draw.
var readCycle = func() []int {
	var cycle []int
	plans := 0
	for i := 0; i < 50; i++ {
		if i%10 < 7 {
			cycle = append(cycle, plans%seekKind)
			plans++
		} else {
			cycle = append(cycle, seekKind)
		}
	}
	return cycle
}()

// genReads builds the pool of n read requests, split by kind in the
// proportions of readCycle.
func genReads(b *base, seed int64, n int) ([][]readReq, error) {
	g := newQgen(b.lake, seed, probeStream, 1)
	pool := make([][]readReq, len(readKinds))
	for i := 0; i < n; i++ {
		kind := readCycle[i%len(readCycle)]
		r := readReq{kind: readKinds[kind]}
		var doc bytes.Buffer
		var req any
		if kind == seekKind {
			if i%2 == 0 {
				r.seeker = blend.KW(g.column(5), topK)
			} else {
				r.seeker = blend.SC(g.column(50), topK)
			}
			if err := blend.EncodeSeekerJSON(r.seeker, &doc); err != nil {
				return nil, err
			}
			r.path, req = "/v1/seek", service.SeekRequest{Seeker: doc.Bytes()}
		} else {
			var err error
			if r.plan, err = genPlan(g, kind); err != nil {
				return nil, err
			}
			if err := blend.EncodePlanJSON(r.plan, &doc); err != nil {
				return nil, err
			}
			r.path, req = "/v1/query", service.QueryRequest{Plan: doc.Bytes()}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.body = body
		pool[kind] = append(pool[kind], r)
	}
	return pool, nil
}

// examples cuts a small query table out of a lake table: the first
// string columns and the numeric one, a few rows.
func examples(g *qgen, rows int) *table.Table {
	src := g.table()
	t := table.New("query", "col0", "col1", "num")
	last := src.NumCols() - 1
	for _, r := range g.rng.Perm(src.NumRows())[:rows] {
		t.MustAppendRow(src.Cell(r, 0), src.Cell(r, 1), src.Cell(r, last))
	}
	t.InferKinds()
	return t
}

func genPlan(g *qgen, kind int) (*blend.Plan, error) {
	switch kind {
	case 0:
		return blend.UnionSearchPlan(examples(g, 30), 100, topK), nil
	case 1:
		ex := g.tuples(3, 2)
		return blend.ImputationPlan(ex, g.column(10), topK), nil
	case 2:
		pos := g.tuples(3, 2)
		neg := g.tuples(2, 2)
		return blend.NegativeExamplesPlan(pos, neg, topK), nil
	case 3:
		keys, target := g.corr(50)
		feature := make([]float64, len(target))
		for j := range feature {
			feature[j] = g.rng.Float64() * 1000
		}
		join := g.tuples(3, 2)
		return blend.FeatureDiscoveryPlan(keys, target, [][]float64{feature}, join, topK), nil
	default:
		return blend.MultiObjectivePlan(g.column(5), examples(g, 30), "col0", "num", topK)
	}
}

// upload is one generated table with a planted marker value that no other
// table holds, so that a keyword seek for it names exactly this table.
type upload struct {
	name, marker string
	csv          []byte
	id           int32
	acked        bool
	deleted      bool
}

func genUpload(b *base, rng *rand.Rand, n int) *upload {
	u := &upload{name: fmt.Sprintf("up_%06d", n), marker: fmt.Sprintf("marker-%d", n)}
	var sb strings.Builder
	sb.WriteString("col0,col1,col2,col3,col4\n")
	for r := 0; r < uploadRows; r++ {
		for c := 0; c < 4; c++ {
			v := b.lake.Vocab[rng.Intn(len(b.lake.Vocab))]
			if r == 0 && c == 0 {
				v = u.marker
			}
			sb.WriteString(v)
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(rng.Intn(100000)))
		sb.WriteByte('\n')
	}
	u.csv = []byte(sb.String())
	return u
}

// serveMixed is the serve_mixed workload: the HTTP service on a loopback
// listener, reads closed-loop on one connection, writes open-loop on
// another, a compaction in the middle, result cache and WAL on.
type serveMixed struct {
	common
	dir      string
	closeWAL func() error
	srv      *http.Server
	srvDone  chan struct{} // closed when the server's goroutine has ended
	url      string
	// One http.Client per connection: each keeps its own keep-alive conn.
	reader, writer *http.Client
	tr             atomic.Pointer[tracer]

	pool    [][]readReq // by kind
	upRng   *rand.Rand
	uploads []*upload // every upload sent so far, acked or not
	nextReq atomic.Int64
	// sinceCompact indexes uploads whose ids are still valid (Compact
	// reassigns table ids), oldest first: the delete candidates.
	sinceCompact []*upload
	upBytes      int64 // CSV bytes of acked uploads

	mu sync.Mutex // guards served: the middleware runs on server goroutines
	// served maps a traced request's id to its serve span.
	served map[int64]int64
	// from marks the counters at the start of the traced window; replay
	// is how long the durability check's WAL replay took.
	from   mark
	replay time.Duration
}

func (w *serveMixed) walPath() string { return filepath.Join(w.dir, "wal.log") }

func (w *serveMixed) open(b *base, dir string) error {
	w.b, w.dir = b, dir
	b.d.SetResultCache(cacheSize)
	b.d.SetRetention(retention)
	closeWAL, err := b.d.EnableWAL(w.walPath())
	if err != nil {
		return err
	}
	w.closeWAL = closeWAL
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.url = "http://" + ln.Addr().String()
	svc := service.New(b.d, service.Options{DefaultTimeout: 30 * time.Second})
	w.srv = &http.Server{Handler: w.middleware(svc.Handler()), ReadHeaderTimeout: 10 * time.Second}
	w.srvDone = make(chan struct{})
	go func() {
		defer close(w.srvDone)
		w.srv.Serve(ln) // returns once close() shuts the server down
	}()
	w.reader = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
	w.writer = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}

	n := poolSize
	if w.cfg.smoke {
		n = 256
	}
	if w.pool, err = genReads(b, w.cfg.seed, n); err != nil {
		return err
	}
	w.upRng = rand.New(rand.NewSource(w.cfg.seed*37 + 11))
	return nil
}

func (w *serveMixed) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shut server down: %w", err)
	}
	<-w.srvDone
	w.reader.CloseIdleConnections()
	w.writer.CloseIdleConnections()
	if w.closeWAL != nil {
		if err := w.closeWAL(); err != nil {
			return err
		}
	}
	return w.b.d.Close()
}

// middleware records, when a traced window is on, one span per request
// around the service's handler, keyed by the id the client sent, and
// counts responses, their bytes and their failures at the same boundary.
func (w *serveMixed) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			next.ServeHTTP(rw, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Parent"), 10, 64)
		cw := &countingWriter{ResponseWriter: rw, status: http.StatusOK}
		id, end := tr.start("service.serve "+r.Method+" "+routeOf(r.URL.Path), req, parent)
		next.ServeHTTP(cw, r)
		end()
		tr.count("service.responses", 1)
		tr.count("service.resp_bytes", float64(cw.n))
		if cw.status/100 != 2 {
			tr.count("service.non2xx", 1)
		}
		w.mu.Lock()
		w.served[req] = id
		w.mu.Unlock()
	})
}

// routeOf drops the table id so that spans group by route.
func routeOf(path string) string {
	if strings.HasPrefix(path, "/v1/tables/") {
		return "/v1/tables/{id}"
	}
	return path
}

type countingWriter struct {
	http.ResponseWriter
	status, n int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// do sends one request and decodes a 2xx JSON body into out.
func (w *serveMixed) do(c *http.Client, parent int64, method, path, ctype string, body []byte, out any) (req int64, err error) {
	r, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req = w.nextReq.Add(1)
	r.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	r.Header.Set("X-Bench-Parent", strconv.FormatInt(parent, 10))
	if ctype != "" {
		r.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(r)
	if err != nil {
		return req, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return req, err
	}
	if resp.StatusCode/100 != 2 {
		return req, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, out); err != nil {
		return req, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return req, nil
}

// readResp covers both /v1/query and /v1/seek responses.
type readResp struct {
	Hits           []service.Hit    `json:"hits"`
	SeekerMicros   map[string]int64 `json:"seeker_micros"`
	DurationMicros int64            `json:"duration_micros"`
}

func (w *serveMixed) read(rr readReq, tr *tracer) (time.Duration, *readResp, error) {
	var out readResp
	// The span's req is filled in below: do assigns the request id.
	id, end := tr.start("client.read "+rr.path, 0, 0)
	t := time.Now()
	req, err := w.do(w.reader, id, http.MethodPost, rr.path, "application/json", rr.body, &out)
	lat := time.Since(t)
	end()
	if tr != nil && err == nil {
		w.mu.Lock()
		serve := w.served[req]
		w.mu.Unlock()
		tr.synthesize(id, serve, req, rr.path, &out)
	}
	return lat, &out, err
}

func (w *serveMixed) window(dur time.Duration, stream int, tr *tracer) (*observed, error) {
	if tr != nil {
		w.served, w.from = make(map[int64]int64), w.mark()
		w.tr.Store(tr)
		defer w.tr.Store(nil)
	}
	// Generate this window's uploads before any clock starts.
	nUp := int(dur / uploadEvery)
	ups := make([]*upload, nUp)
	for i := range ups {
		ups[i] = genUpload(w.b, w.upRng, len(w.uploads)+i)
	}
	w.uploads = append(w.uploads, ups...)
	events := w.schedule(dur, ups)

	var writes []sample
	var late []float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		writes, late = openLoop(time.Now(), events)
	}()
	// Within its kind a read is drawn Zipf(1.1): a few requests are hot,
	// most of the pool is cold, and the pool is four times the result
	// cache. Which requests are the hot ones shifts every hotEpoch reads,
	// so that a window averages over many hot sets and not over the cost
	// of the few requests a seed happened to put first.
	rng := rand.New(rand.NewSource(w.cfg.seed*31 + int64(stream)))
	zipfs := make([]*rand.Zipf, len(w.pool))
	for k, sub := range w.pool {
		zipfs[k] = rand.NewZipf(rng, 1.1, 1, uint64(len(sub)-1))
	}
	reads := 0
	obs, err := closedLoop([]opFunc{func() (string, time.Duration, error) {
		k := readCycle[reads%len(readCycle)]
		shift := reads / hotEpoch * hotStride
		reads++
		rr := w.pool[k][(int(zipfs[k].Uint64())+shift)%len(w.pool[k])]
		lat, _, err := w.read(rr, tr)
		return rr.kind, lat, err
	}}, dur)
	<-done
	if err != nil {
		return nil, err
	}
	obs.writes, obs.late = writes, late
	return obs, nil
}

// schedule lays out one window's write events: uploads (each followed by
// its read-your-writes check), deletes of the oldest live upload, and one
// compaction half way.
func (w *serveMixed) schedule(dur time.Duration, ups []*upload) []event {
	var events []event
	for i, u := range ups {
		due := time.Duration(i)*uploadEvery + uploadEvery/2
		events = append(events,
			event{due: due, run: func() (string, error) { return "upload", w.upload(u) }},
			event{due: due, run: func() (string, error) { return "ryw", w.readYourWrite(u) }})
	}
	for due := deleteEvery; due < dur; due += deleteEvery {
		events = append(events, event{due: due, run: func() (string, error) { return "delete", w.deleteOldest() }})
	}
	events = append(events, event{due: dur / 2, run: func() (string, error) { return "compact", w.compact() }})
	// Stable: an upload stays ahead of its own check.
	sort.SliceStable(events, func(a, b int) bool { return events[a].due < events[b].due })
	return events
}

func (w *serveMixed) upload(u *upload) error {
	var out service.IngestResponse
	if _, err := w.do(w.writer, 0, http.MethodPost, "/v1/tables?name="+u.name, "text/csv", u.csv, &out); err != nil {
		return err
	}
	if len(out.TableIDs) != 1 || out.RowsAdded != uploadRows {
		return fmt.Errorf("upload %s: acked %d tables, %d rows", u.name, len(out.TableIDs), out.RowsAdded)
	}
	u.id, u.acked = out.TableIDs[0], true
	w.sinceCompact = append(w.sinceCompact, u)
	w.upBytes += int64(len(u.csv))
	return nil
}

// readYourWrite seeks the marker of an acked upload: the answer must be
// exactly that table.
func (w *serveMixed) readYourWrite(u *upload) error {
	if !u.acked {
		return nil // the failed upload is already counted
	}
	body := fmt.Sprintf(`{"seeker": {"kind": "kw", "values": [%q], "k": 5}}`, u.marker)
	var out readResp
	if _, err := w.do(w.writer, 0, http.MethodPost, "/v1/seek", "application/json", []byte(body), &out); err != nil {
		return err
	}
	if len(out.Hits) != 1 || out.Hits[0].Table != u.name {
		return fmt.Errorf("read-your-writes: seek for %s of acked table %s returned %v", u.marker, u.name, out.Hits)
	}
	return nil
}

func (w *serveMixed) deleteOldest() error {
	if len(w.sinceCompact) == 0 {
		return nil // nothing uploaded since the compaction yet
	}
	u := w.sinceCompact[0]
	w.sinceCompact = w.sinceCompact[1:]
	var out service.RemoveResponse
	if _, err := w.do(w.writer, 0, http.MethodDelete, fmt.Sprintf("/v1/tables/%d", u.id), "", nil, &out); err != nil {
		return err
	}
	if !out.Removed {
		return fmt.Errorf("delete %s: not removed", u.name)
	}
	u.deleted = true
	return nil
}

func (w *serveMixed) compact() error {
	var out service.CompactResponse
	_, err := w.do(w.writer, 0, http.MethodPost, "/v1/compact", "", nil, &out)
	w.sinceCompact = nil
	return err
}

func (w *serveMixed) bytes() (stored, user int64) {
	stored, user = w.b.diskBytes, w.b.userBytes+w.upBytes
	if st, err := os.Stat(w.walPath()); err == nil {
		stored += st.Size()
	}
	return stored, user
}

// verify replays a sample of the read pool in process and requires the
// service's answer to be the library's: the library is the oracle here,
// and is itself checked by seek_native's oracles.
func (w *serveMixed) verify() (int, []string, string) {
	var failures []string
	h := fnv.New64a()
	var sample []readReq
	for _, sub := range w.pool {
		sample = append(sample, sub[:6]...)
	}
	for _, rr := range sample {
		_, got, err := w.read(rr, nil)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		var want blend.Hits
		if rr.plan != nil {
			res, rerr := w.b.d.Run(context.Background(), rr.plan)
			if rerr != nil {
				failures = append(failures, fmt.Sprintf("library oracle: %v", rerr))
				continue
			}
			want = res.Output
		} else if want, err = w.b.d.Seek(context.Background(), rr.seeker); err != nil {
			failures = append(failures, fmt.Sprintf("library oracle: %v", err))
			continue
		}
		names := make([]string, len(got.Hits))
		gotHits := make(blend.Hits, len(got.Hits))
		for i, hit := range got.Hits {
			names[i], gotHits[i] = hit.Table, blend.TableHit{TableID: hit.TableID, Score: hit.Score}
		}
		gk, wk := hitsKey(names, gotHits), hitsKey(w.b.d.TableNames(want), want)
		h.Write([]byte(gk))
		if gk != wk {
			failures = append(failures, fmt.Sprintf("%s over HTTP answered %q, the library %q", rr.path, gk, wk))
		}
	}
	return len(sample), failures, fmt.Sprintf("%016x", h.Sum64())
}

// ackedState is what the durability check needs to know about the run,
// handed to the child process through a file.
type ackedState struct {
	Index      string   `json:"index"`
	WAL        string   `json:"wal"`
	Generation uint64   `json:"generation"`
	Live       []string `json:"live"`
	Deleted    []string `json:"deleted"`
}

// audit is the durability check: with the server stopped and the WAL
// closed but no final SaveIndex, a fresh process must rebuild the same
// generation and every acked, undeleted table from the base file + WAL.
func (w *serveMixed) audit() (int, []string) {
	st := ackedState{Index: w.b.indexPath, WAL: w.walPath(), Generation: w.b.d.Generation()}
	for _, u := range w.uploads {
		switch {
		case u.deleted:
			st.Deleted = append(st.Deleted, u.name)
		case u.acked:
			st.Live = append(st.Live, u.name)
		}
	}
	fail := func(err error) (int, []string) { return 1, []string{"durability: " + err.Error()} }
	if err := w.closeWAL(); err != nil {
		return fail(err)
	}
	w.closeWAL = nil
	b, err := json.Marshal(st)
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(w.dir, "acked.json"), b, 0o644); err != nil {
		return fail(err)
	}
	po, err := child(w.cfg, "durability", w.dir)
	if err != nil {
		return fail(err)
	}
	w.replay = time.Duration(po.ReplayS * float64(time.Second))
	return po.Checked, po.Failures
}

// checkDurability is the child side of audit.
func checkDurability(dir string) (checked int, failures []string, replay time.Duration, err error) {
	b, err := os.ReadFile(filepath.Join(dir, "acked.json"))
	if err != nil {
		return 0, nil, 0, err
	}
	var st ackedState
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, nil, 0, err
	}
	d, err := blend.OpenIndex(st.Index)
	if err != nil {
		return 0, nil, 0, err
	}
	defer d.Close()
	t := time.Now()
	closeWAL, err := d.EnableWAL(st.WAL)
	if err != nil {
		return 0, nil, 0, err
	}
	replay = time.Since(t)
	defer closeWAL()
	checked = 1 + len(st.Live) + len(st.Deleted)
	if g := d.Generation(); g != st.Generation {
		failures = append(failures, fmt.Sprintf("durability: replay reached generation %d, the server had published %d", g, st.Generation))
	}
	for _, name := range st.Live {
		if d.TableIDByName(name) < 0 {
			failures = append(failures, "durability: acked table "+name+" lost")
		}
	}
	for _, name := range st.Deleted {
		if d.TableIDByName(name) >= 0 {
			failures = append(failures, "durability: deleted table "+name+" came back")
		}
	}
	return checked, failures, replay, nil
}

// synthesize hangs under a served read the spans the response itself
// reports: the library call inside the handler, ending where the handler
// ended, and its seekers back to back (the service runs plans
// sequentially), ending where the library call ended.
func (t *tracer) synthesize(client, serve, req int64, kind string, out *readResp) {
	t.mu.Lock()
	t.spans[client-1].Req = req
	stop := t.spans[serve-1].EndNS
	t.mu.Unlock()
	exec := t.add("blend.exec "+kind, req, serve, stop, time.Duration(out.DurationMicros)*time.Microsecond)
	for _, node := range sortedKeys(out.SeekerMicros) {
		d := time.Duration(out.SeekerMicros[node]) * time.Microsecond
		t.add("core.seeker", req, exec, stop, d)
		stop -= d.Nanoseconds()
	}
}
