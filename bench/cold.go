package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"blend"
)

// coldCycle is the seeker mix of cold_open: SC 50 %, KW 30 %, MC 20 %.
var coldCycle = []string{"sc", "kw", "sc", "mc", "sc", "kw", "sc", "mc", "kw", "sc"}

// coldOpen is the cold_open workload, the lifecycle of `blend seek
// -index`: open the saved file (mmap), run one seeker, close. The file is
// in the OS page cache, so this is sandbox latency, not device latency.
type coldOpen struct {
	common

	mu sync.Mutex // guards what traced ops note down
	// firstTouchMS is, per traced op, what the first seek paid on top of
	// the same seek repeated warm.
	firstTouchMS []float64
	// resident and mapped describe one opened index after its first seek.
	resident, mapped float64
}

func (w *coldOpen) open(b *base, _ string) error {
	w.b = b
	return nil
}

func (w *coldOpen) close() error { return w.b.d.Close() }

// op is one lifecycle. The latency a user sees is time to the first
// result: open plus the seek; closing comes after the answer. probe asks
// a traced op to also measure its first touch.
func (w *coldOpen) op(op seekOp, tr *tracer, probe bool) (time.Duration, blend.Hits, error) {
	t := time.Now()
	_, endOpen := tr.start("storage.open", 0, 0)
	d, err := blend.OpenIndex(w.b.indexPath)
	endOpen()
	if err != nil {
		return 0, nil, err
	}
	opened := time.Since(t)
	hits, err := d.Seek(context.Background(), op.seeker)
	lat := time.Since(t)
	if probe && err == nil {
		// The same seek again is warm: what the first one paid on top is
		// the first touch (shard materialisation, CRC, decode).
		t2 := time.Now()
		_, err = d.Seek(context.Background(), op.seeker)
		warm := time.Since(t2)
		st := d.Stats()
		w.mu.Lock()
		w.firstTouchMS = append(w.firstTouchMS, ms(lat-opened-warm))
		w.resident, w.mapped = float64(st.ResidentShards), float64(st.MappedBytes)
		w.mu.Unlock()
	}
	_, endClose := tr.start("storage.close", 0, 0)
	cerr := d.Close()
	endClose()
	if err == nil {
		err = cerr
	}
	return lat, hits, err
}

func (w *coldOpen) window(dur time.Duration, stream int, tr *tracer) (*observed, error) {
	fns := make([]opFunc, clients)
	for c := range fns {
		st := newSeekStream(w.b, w.cfg.seed, stream, c, coldCycle)
		fns[c] = func() (string, time.Duration, error) {
			op := st.next()
			// One traced op in eight repeats its seek, to keep the probe
			// from slowing the window it describes.
			lat, hits, err := w.op(op, tr, tr != nil && st.i%8 == 0)
			if err == nil {
				err = checkHits(op, hits)
			}
			return op.kind, lat, err
		}
	}
	return closedLoop(fns, dur)
}

// verify requires the answers from the opened file to be those of the
// index it was saved from, which seek_native's oracles check.
func (w *coldOpen) verify() (int, []string, string) {
	var failures []string
	h := fnv.New64a()
	ops := probeOps(w.b, w.cfg.seed, coldCycle, 2*len(coldCycle))
	for _, op := range ops {
		_, got, err := w.op(op, nil, false)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		want, err := w.b.d.Seek(context.Background(), op.seeker)
		if err != nil {
			failures = append(failures, fmt.Sprintf("in-memory oracle: %v", err))
			continue
		}
		gk, wk := hitsKey(w.b.d.TableNames(got), got), hitsKey(w.b.d.TableNames(want), want)
		h.Write([]byte(gk))
		if gk != wk {
			failures = append(failures, fmt.Sprintf("%s from the opened file answered %q, the built index %q", op.kind, gk, wk))
		}
	}
	return len(ops), failures, fmt.Sprintf("%016x", h.Sum64())
}

func (w *coldOpen) layers(tr *tracer, _, _ *observed, m metrics) error {
	m.pct("storage.open_ms_p50", tr.durations("storage.open"), 0.5)
	m.pct("storage.close_ms_p50", tr.durations("storage.close"), 0.5)
	m.pct("storage.first_touch_ms_p50", w.firstTouchMS, 0.5)
	m["storage.resident_shards_after_first"] = w.resident
	m["storage.mapped_bytes"] = w.mapped
	ops := probeOps(w.b, w.cfg.seed, coldCycle, 3*len(coldCycle))
	probePostings(w.b.d, ops, m)
	return nil
}
