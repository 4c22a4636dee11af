package main

import (
	"sync"
	"time"
)

// sample is one completed operation of a window. Times are offsets from
// the window's start; lat runs from when the op was due (open loop) or
// issued (closed loop) to its result.
type sample struct {
	kind  string
	start time.Duration
	lat   time.Duration
	err   error
}

// observed is what one window saw from the outside.
type observed struct {
	reads   []sample // the ops the end-to-end read metrics describe
	writes  []sample // open-loop writes (serve_mixed only)
	late    []float64
	elapsed time.Duration
	cpu     time.Duration
}

func (o *observed) attempted() int { return len(o.reads) + len(o.writes) }

func (o *observed) failed() (n int, first error) {
	for _, ss := range [][]sample{o.reads, o.writes} {
		for _, s := range ss {
			if s.err != nil {
				if first == nil {
					first = s.err
				}
				n++
			}
		}
	}
	return n, first
}

// opFunc runs the next op of one client and reports its kind, the latency a
// user would see, and whether the answer was wrong or missing. It does its
// own timing so that input generation stays outside the latency.
type opFunc func() (kind string, lat time.Duration, err error)

// closedLoop drives one goroutine per client, each sending its next op
// only after the previous one completed, until dur has passed. Ops in
// flight at the deadline finish and count.
func closedLoop(clients []opFunc, dur time.Duration) (*observed, error) {
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for c, next := range clients {
		wg.Add(1)
		go func(c int, next opFunc) {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= dur {
					return
				}
				kind, lat, err := next()
				per[c] = append(per[c], sample{kind: kind, start: start, lat: lat, err: err})
			}
		}(c, next)
	}
	wg.Wait()
	o := &observed{elapsed: time.Since(t0)}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	o.cpu = cpu1 - cpu0
	for _, ss := range per {
		o.reads = append(o.reads, ss...)
	}
	return o, nil
}

// event is one entry of an open-loop schedule.
type event struct {
	due time.Duration
	run func() (kind string, err error)
}

// openLoop sends events on their schedule from one goroutine (one
// connection): an event that is due while the previous one is still in
// flight waits, and that wait counts, because latency runs from the due
// time. lateMS is the generator's own lateness: how long after an event
// could first be sent (due, and the connection free) it was sent.
func openLoop(t0 time.Time, events []event) (samples []sample, lateMS []float64) {
	var free time.Duration
	for _, ev := range events {
		if d := ev.due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(t0)
		kind, err := ev.run()
		end := time.Since(t0)
		samples = append(samples, sample{kind: kind, start: ev.due, lat: end - ev.due, err: err})
		lateMS = append(lateMS, ms(sent-max(ev.due, free)))
		free = end
	}
	return samples, lateMS
}
