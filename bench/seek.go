package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"blend"
	"blend/internal/core"
)

// seekCycle is the fixed order in which every client draws seeker kinds:
// SC 40 %, KW 25 %, MC 10 %, Correlation 10 %, Semantic 5 %, Snapshot.Seek
// 10 %. A fixed cycle instead of a random draw keeps the mix identical
// from run to run, so that only the inputs vary with the seed.
var seekCycle = []string{
	"sc", "kw", "sc", "mc", "sc", "kw", "snap", "sc", "corr", "kw",
	"sc", "sem", "sc", "kw", "mc", "sc", "snap", "kw", "corr", "sc",
}

// scSizes cycles |Q| over 20–200.
var scSizes = []int{20, 100, 50, 200, 40, 150, 80, 30}

const topK = 10

// seekOp is one generated seeker.
type seekOp struct {
	kind   string
	seeker blend.Seeker
	// values is the flat query value set, for the storage probe.
	values []string
}

// seekStream generates a client's ops: op i depends only on the seed, the
// client and i.
type seekStream struct {
	g     *qgen
	cycle []string
	i     int
	// drawn counts the ops generated per kind; input sizes cycle on it.
	drawn map[string]int
}

func newSeekStream(b *base, seed int64, stream, client int, cycle []string) *seekStream {
	// Clients start at different points of the cycle so that their heavy
	// ops do not line up.
	return &seekStream{g: newQgen(b.lake, seed, stream, client), cycle: cycle, i: client * len(cycle) / 2, drawn: map[string]int{}}
}

func (s *seekStream) next() seekOp {
	kind := s.cycle[s.i%len(s.cycle)]
	s.i++
	n := s.drawn[kind]
	s.drawn[kind]++
	op := seekOp{kind: kind}
	switch kind {
	case "sc", "snap":
		op.values = s.g.column(scSizes[n%len(scSizes)])
		op.seeker = blend.SC(op.values, topK)
	case "kw":
		op.values = s.g.column(5)
		op.seeker = blend.KW(op.values, topK)
	case "mc":
		tuples := s.g.tuples(5+n%6, 2)
		for _, t := range tuples {
			op.values = append(op.values, t...)
		}
		op.seeker = blend.MC(tuples, topK)
	case "corr":
		keys, targets := s.g.corr(100)
		op.values = keys
		op.seeker = blend.Correlation(keys, targets, topK)
	case "sem":
		op.values = s.g.column(20)
		op.seeker = blend.Semantic(op.values, topK)
	default:
		panic("unknown seeker kind " + kind)
	}
	return op
}

// String identifies the op for the op-stream hash.
func (o seekOp) String() string { return fmt.Sprintf("%s %q", o.kind, o.values) }

// checkHits is the cheap check every in-window answer gets (the exact
// oracles run on a sample, in verify): every query is drawn from lake
// content, so hits exist, and they come best first.
func checkHits(op seekOp, hits blend.Hits) error {
	if len(hits) == 0 {
		return fmt.Errorf("%s: no hits", op.kind)
	}
	if !sort.SliceIsSorted(hits, func(a, b int) bool { return hits[a].Score > hits[b].Score }) {
		return fmt.Errorf("%s: hits not ordered by score", op.kind)
	}
	return nil
}

// hitsKey renders hits for comparison and hashing.
func hitsKey(names []string, hits blend.Hits) string {
	var sb strings.Builder
	for i, h := range hits {
		fmt.Fprintf(&sb, "%s:%g ", names[i], h.Score)
	}
	return sb.String()
}

// seekNative is the seek_native workload: in-process Discovery.Seek with
// the result cache off and every query unique.
type seekNative struct {
	common
	snap *blend.Snapshot
}

func (w *seekNative) open(b *base, _ string) error {
	w.b = b
	snap, err := b.d.Snapshot()
	if err != nil {
		return err
	}
	w.snap = snap
	return nil
}

func (w *seekNative) close() error {
	w.snap.Release()
	return w.b.d.Close()
}

func (w *seekNative) exec(op seekOp) (blend.Hits, error) {
	if op.kind == "snap" {
		return w.snap.Seek(context.Background(), op.seeker)
	}
	return w.b.d.Seek(context.Background(), op.seeker)
}

func (w *seekNative) window(dur time.Duration, stream int, tr *tracer) (*observed, error) {
	fns := make([]opFunc, clients)
	for c := range fns {
		st := newSeekStream(w.b, w.cfg.seed, stream, c, seekCycle)
		fns[c] = func() (string, time.Duration, error) {
			op := st.next()
			_, end := tr.start("blend.seek."+op.kind, 0, 0)
			t := time.Now()
			hits, err := w.exec(op)
			lat := time.Since(t)
			end()
			if err == nil {
				err = checkHits(op, hits)
			}
			return op.kind, lat, err
		}
	}
	return closedLoop(fns, dur)
}

// probeOps is the fixed op sample the layer probes and the oracles replay:
// the first n ops of a stream of their own, so counts repeat exactly for a
// seed no matter how many ops the window fitted.
func probeOps(b *base, seed int64, cycle []string, n int) []seekOp {
	st := newSeekStream(b, seed, probeStream, 0, cycle)
	ops := make([]seekOp, n)
	for i := range ops {
		ops[i] = st.next()
	}
	return ops
}

func (w *seekNative) layers(tr *tracer, _, _ *observed, m metrics) error {
	for _, kind := range []string{"sc", "kw", "mc", "corr", "sem", "snap"} {
		m.pct("blend.seek_ms_p50."+kind, tr.durations("blend.seek."+kind), 0.5)
	}
	ops := probeOps(w.b, w.cfg.seed, seekCycle, 3*len(seekCycle))
	if err := probeSeekers(w.b.d, ops, m); err != nil {
		return err
	}
	probePostings(w.b.d, ops, m)
	return nil
}

// probeSeekers replays ops through Engine.RunSeeker, the one public entry
// that returns a seeker's RunStats, and derives the funnel counts from
// them: rows examined per hit, XASH pruning quality, native share.
func probeSeekers(d *blend.Discovery, ops []seekOp, m metrics) error {
	rows, hits := map[string]float64{}, map[string]float64{}
	var native, total, mcOps, cand, valid float64
	for _, op := range ops {
		kind := op.kind
		if kind == "snap" {
			kind = "sc"
		}
		h, st, err := d.Engine().RunSeeker(context.Background(), op.seeker)
		if err != nil {
			return fmt.Errorf("probe %s: %w", op.kind, err)
		}
		rows[kind] += float64(st.SQLRows)
		hits[kind] += float64(len(h))
		total++
		if st.Path != core.PathSQL {
			native++
		}
		if kind == "mc" {
			mcOps++
			cand += float64(st.Candidates)
			valid += float64(st.Validated)
		}
	}
	for _, kind := range []string{"sc", "kw", "mc", "corr"} {
		m["core.rows_per_hit."+kind] = ratio(rows[kind], hits[kind])
	}
	m["core.native_share"] = ratio(native, total)
	m["core.mc_candidates_per_op"] = ratio(cand, mcOps)
	m["core.mc_validated_share"] = ratio(valid, cand)
	return nil
}

// probePostings scans the posting lists of the ops' query values straight
// on the store, single-threaded: the storage work under a seek.
func probePostings(d *blend.Discovery, ops []seekOp, m metrics) {
	store := d.Engine().Store()
	var postings float64
	t := time.Now()
	for _, op := range ops {
		for _, v := range op.values {
			store.ScanPostings(v, func(_, _, _ int32) { postings++ })
		}
	}
	el := time.Since(t)
	m["storage.postings_per_seek"] = ratio(postings, float64(len(ops)))
	m["storage.scan_postings_per_s"] = ratio(postings, el.Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// verifySample caps how many ops of each kind verify checks: through the
// SQL interpreter an MC or Correlation seeker takes about a second.
var verifySample = map[string]int{"sc": 4, "snap": 1, "kw": 3, "mc": 1, "corr": 1, "sem": 1}

// verify checks a sample of the probe stream: SC (and Snapshot.Seek)
// against a brute-force scan of the generated tables, KW, MC and
// Correlation against the same seeker forced through the SQL interpreter,
// Semantic (approximate by design) against itself run twice.
func (w *seekNative) verify() (int, []string, string) {
	var failures []string
	h := fnv.New64a()
	eng := w.b.d.Engine()
	checked, taken := 0, map[string]int{}
	for _, op := range probeOps(w.b, w.cfg.seed, seekCycle, len(seekCycle)) {
		if taken[op.kind]++; taken[op.kind] > verifySample[op.kind] {
			continue
		}
		checked++
		got, err := w.exec(op)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", op.kind, err))
			continue
		}
		gk := hitsKey(w.b.d.TableNames(got), got)
		h.Write([]byte(gk))
		var wk string
		switch op.kind {
		case "sc", "snap":
			// Names only: the scan ranks by the same overlap, ties by name,
			// which is the table-id order of the generated lake.
			gk = strings.Join(w.b.d.TableNames(got), " ")
			wk = strings.Join(w.b.lake.BruteForceTopOverlap(op.values, topK), " ")
		default:
			eng.NoNativeExec = op.kind != "sem"
			want, err := w.b.d.Seek(context.Background(), op.seeker)
			eng.NoNativeExec = false
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s oracle: %v", op.kind, err))
				continue
			}
			wk = hitsKey(w.b.d.TableNames(want), want)
		}
		if gk != wk {
			failures = append(failures, fmt.Sprintf("%s answered %q, the oracle %q", op.kind, gk, wk))
		}
	}
	return checked, failures, fmt.Sprintf("%016x", h.Sum64())
}
