package main

import (
	"bytes"
	"context"
	"strings"
	"time"

	"blend"
	"blend/internal/core"
	"blend/internal/table"
)

// mark notes the counters serve_mixed compares across a traced window.
type mark struct {
	gen      uint64
	cache    blend.CacheStats
	wal      int64
	upBytes  int64
	uploaded int
}

func (w *serveMixed) mark() mark {
	stored, _ := w.bytes()
	return mark{gen: w.b.d.Generation(), cache: w.b.d.CacheStats(), wal: stored - w.b.diskBytes, upBytes: w.upBytes, uploaded: len(w.uploads)}
}

func (w *serveMixed) layers(tr *tracer, plain, traced *observed, m metrics) error {
	byID := make(map[int64]span, len(tr.spans))
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	self := selfTimes(tr.spans)
	var serveMS, selfMS, netMS, publishMS, duringCompact []float64
	var compact span
	for _, s := range tr.spans {
		switch {
		case s.Name == "service.serve POST /v1/compact":
			compact = s
		case s.Name == "service.serve POST /v1/tables":
			publishMS = append(publishMS, ms(s.dur()))
		case strings.HasPrefix(s.Name, "service.serve ") && byID[s.Parent].Name != "":
			// Served reads: the ones a client.read span caused.
			serveMS = append(serveMS, ms(s.dur()))
			selfMS = append(selfMS, ms(self[s.ID]))
			netMS = append(netMS, ms(self[s.Parent]))
		}
	}
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "client.read ") && s.StartNS < compact.EndNS && s.EndNS > compact.StartNS {
			duringCompact = append(duringCompact, ms(s.dur()))
		}
	}
	m.pct("service.serve_ms_p50", serveMS, 0.5)
	m.pct("service.self_ms_p50", selfMS, 0.5)
	m.pct("client.net_ms_p50", netMS, 0.5)
	m["core.compact_ms"] = ms(compact.dur())
	// Too few reads fit into one compaction for a tail; the middle of
	// them still shows a foreground stall that the window's median hides.
	m["core.read_p50_during_compact_ms"] = median(duringCompact)

	m["service.resp_bytes_per_op"] = ratio(tr.counts["service.resp_bytes"], tr.counts["service.responses"])
	m["service.non2xx_share"] = ratio(tr.counts["service.non2xx"], tr.counts["service.responses"])

	var writeMS, late []float64
	for _, o := range []*observed{plain, traced} {
		for _, s := range o.writes {
			if s.kind == "upload" || s.kind == "delete" {
				writeMS = append(writeMS, ms(s.lat))
			}
		}
		late = append(late, o.late...)
	}
	m.pct("client.write_latency_p50_ms", writeMS, 0.5)
	m.pct("client.write_latency_p95_ms", writeMS, 0.95)
	m.pct("gen.late_ms_p95", late, 0.95)

	from, to := w.from, w.mark()
	m["core.generations_published"] = float64(to.gen - from.gen)
	hits, misses := float64(to.cache.Hits-from.cache.Hits), float64(to.cache.Misses-from.cache.Misses)
	m["core.cache_hit_share"] = ratio(hits, hits+misses)
	m["core.cache_invalidations"] = float64(to.cache.Invalidations - from.cache.Invalidations)
	m["storage.wal_bytes_per_user_byte"] = ratio(float64(to.wal-from.wal), float64(to.upBytes-from.upBytes))
	m["storage.wal_replay_ms"] = ms(w.replay)

	// Probe: parse the traced window's upload bodies with the table layer
	// alone; what is left of the upload handler's span is publish work
	// (copy-on-write insert, WAL append and sync, generation swap).
	var csvBytes float64
	t := time.Now()
	for _, u := range w.uploads[from.uploaded:to.uploaded] {
		if _, err := table.ReadCSV(u.name, bytes.NewReader(u.csv)); err != nil {
			return err
		}
		csvBytes += float64(len(u.csv))
	}
	parse := time.Since(t)
	m["table.parse_csv_mb_per_s"] = ratio(csvBytes/1e6, parse.Seconds())
	if m.pct("core.publish_ms_p50", publishMS, 0.5) {
		m["core.publish_ms_p50"] -= ms(parse) / float64(to.uploaded-from.uploaded)
	}
	return w.probePlans(m)
}

// probePlans replays the first 8 plans of each kind in process, with
// the result cache off so that every seeker really runs, and splits
// Discovery.Run into seeker time and the rest (optimizer, scheduler,
// combiners) using the RunStats the call returns.
func (w *serveMixed) probePlans(m metrics) error {
	w.b.d.SetResultCache(0)
	var runMS, overheadMS []float64
	var seekerNS, totalNS, rewritten, native, seekers float64
	var sample []readReq
	for _, sub := range w.pool[:seekKind] {
		sample = append(sample, sub[:8]...)
	}
	for _, rr := range sample {
		t := time.Now()
		res, err := w.b.d.Run(context.Background(), rr.plan)
		run := time.Since(t)
		if err != nil {
			return err
		}
		var inSeekers time.Duration
		for _, st := range res.Stats {
			inSeekers += st.Duration
			seekers++
			if st.Rewritten {
				rewritten++
			}
			if st.Path != core.PathSQL {
				native++
			}
		}
		runMS = append(runMS, ms(run))
		overheadMS = append(overheadMS, ms(run-inSeekers))
		seekerNS += float64(inSeekers)
		totalNS += float64(run)
	}
	m.pct("blend.run_ms_p50", runMS, 0.5)
	m.pct("core.plan_overhead_ms_p50", overheadMS, 0.5)
	m["core.seeker_ms_share"] = ratio(seekerNS, totalNS)
	m["core.rewritten_share"] = ratio(rewritten, seekers)
	m["core.native_share"] = ratio(native, seekers)
	return nil
}
