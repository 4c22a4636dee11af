package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (0 = root).
// Times are nanoseconds since the tracer was created.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer records nothing, so measured windows run the same code with
// tracing off.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// start opens a span and returns the function that closes it, plus the
// span's id for children to name as their parent.
func (t *tracer) start(name string, req, parent int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, StartNS: begin})
	id = int64(len(t.spans))
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNS = stop
		t.mu.Unlock()
	}
}

// add records an already-measured interval (a seeker duration reported by
// RunStats) as a child span that ends when its parent's work ended.
func (t *tracer) add(name string, req, parent int64, endNS int64, d time.Duration) (id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, StartNS: endNS - d.Nanoseconds(), EndNS: endNS})
	return int64(len(t.spans))
}

// count accumulates a counter recorded at the same boundary as a span.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// durations lists, in milliseconds, every finished span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS > 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover (overlapping children are merged,
// children are clipped to the parent).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.b > end {
			total += v.b - max(v.a, end)
			end = v.b
		}
	}
	return time.Duration(total)
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	doc := struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
