package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"blend/internal/berr"
)

// planExec carries the shared state of one plan execution. The DAG
// scheduler dispatches the node helpers below; the package tests' one-at-a-
// time reference resolver runs the same helpers, so its NodeHits are
// computed by identical code and differ only in dispatch order.
type planExec struct {
	v   *view
	p   *Plan
	res *PlanResult

	optimize    bool
	explain     bool
	groupOf     map[string]*executionGroup
	excludeFrom map[string]string
	rankedOf    map[string][]string // Intersect combiner id -> ranked members

	mu         sync.Mutex // guards res maps and completion
	completion []string

	inFlight int32
	peak     int32
}

// runSeeker executes one seeker node and records its result.
func (x *planExec) runSeeker(ctx context.Context, id string, rw Rewrite) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := x.p.nodes[id]
	cur := atomic.AddInt32(&x.inFlight, 1)
	for {
		peak := atomic.LoadInt32(&x.peak)
		if cur <= peak || atomic.CompareAndSwapInt32(&x.peak, peak, cur) {
			break
		}
	}
	hits, stats, err := x.v.seek(ctx, n.seeker, rw)
	atomic.AddInt32(&x.inFlight, -1)
	if err != nil {
		// Wrap preserves an inner typed code (and errors.Is through Err),
		// so cancellation and index corruption keep their classification.
		return berr.Wrap(berr.CodeInternal, fmt.Sprintf("plan.node[%s]", id), err)
	}
	x.mu.Lock()
	x.res.NodeHits[id] = hits
	x.res.Stats[id] = stats
	if x.explain {
		x.res.SQLByNode[id] = n.seeker.SQL(rw)
		path := stats.Path
		if stats.CacheHit {
			path += " (cached)"
		}
		x.res.PathByNode[id] = path
	}
	x.completion = append(x.completion, id)
	x.mu.Unlock()
	return nil
}

// hitsOf reads a finished node's result.
func (x *planExec) hitsOf(id string) Hits {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.res.NodeHits[id]
}

// runGroup executes an execution group's members in ranked order, each
// seeker after the first restricted to the tables found so far (the
// Intersection rewrite rule). The chain is inherently sequential — every
// member's SQL depends on its predecessor's result — so a group forms a
// single scheduler task.
func (x *planExec) runGroup(ctx context.Context, g *executionGroup) error {
	var prior []int32
	for i, id := range x.rankedOf[g.combiner] {
		rw := NoRewrite
		if i > 0 {
			rw = IncludeTables(prior)
		}
		if err := x.runSeeker(ctx, id, rw); err != nil {
			return err
		}
		prior = x.hitsOf(id).TableIDs()
	}
	return nil
}

// runCombiner merges the (already resolved) inputs of a combiner node.
func (x *planExec) runCombiner(ctx context.Context, id string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n := x.p.nodes[id]
	x.mu.Lock()
	collected := make([]Hits, len(n.inputs))
	for i, in := range n.inputs {
		collected[i] = x.res.NodeHits[in]
	}
	x.mu.Unlock()
	out := n.combiner.Combine(collected)
	x.mu.Lock()
	x.res.NodeHits[id] = out
	x.mu.Unlock()
	return nil
}

// schedTask is one node of the execution DAG handed to the worker pool.
type schedTask struct {
	run        func() error
	deps       int32 // remaining unfinished dependencies
	dependents []*schedTask
}

// runScheduled executes the plan as a task DAG on a bounded worker pool:
// free seekers, execution groups, Difference-rewrite chains, and combiners
// each become one task, dispatched the moment their dependencies resolve.
// Seekers are pure reads, so NodeHits do not depend on dispatch order.
func (x *planExec) runScheduled(ctx context.Context, topo []string) error {
	taskOf := make(map[string]*schedTask, len(topo))
	var tasks []*schedTask
	newTask := func(run func() error) *schedTask {
		t := &schedTask{run: run}
		tasks = append(tasks, t)
		return t
	}
	groupTask := make(map[string]*schedTask)
	for _, id := range topo {
		id := id
		n := x.p.nodes[id]
		switch {
		case n.isSeeker() && x.groupOf[id] != nil:
			// All members of a group share one task (their rewrite
			// chain is sequential by construction).
			g := x.groupOf[id]
			t, ok := groupTask[g.combiner]
			if !ok {
				t = newTask(func() error { return x.runGroup(ctx, g) })
				groupTask[g.combiner] = t
			}
			taskOf[id] = t
		case n.isSeeker():
			if sub, ok := x.excludeFrom[id]; ok {
				taskOf[id] = newTask(func() error {
					return x.runSeeker(ctx, id, ExcludeTables(x.hitsOf(sub).TableIDs()))
				})
			} else {
				taskOf[id] = newTask(func() error { return x.runSeeker(ctx, id, NoRewrite) })
			}
		default:
			taskOf[id] = newTask(func() error { return x.runCombiner(ctx, id) })
		}
	}
	// Wire dependencies in a second pass: a Difference subtrahend may sit
	// anywhere in the topological order relative to its minuend.
	type edge struct{ from, to *schedTask }
	wired := make(map[edge]bool)
	dep := func(from, to *schedTask) {
		if from == nil || to == nil || from == to || wired[edge{from, to}] {
			return
		}
		wired[edge{from, to}] = true
		from.dependents = append(from.dependents, to)
		to.deps++
	}
	for _, id := range topo {
		n := x.p.nodes[id]
		if n.isSeeker() {
			if sub, ok := x.excludeFrom[id]; ok {
				dep(taskOf[sub], taskOf[id])
			}
			continue
		}
		for _, in := range n.inputs {
			dep(taskOf[in], taskOf[id])
		}
	}
	return runTaskPool(ctx, tasks)
}

// runTaskPool drains a task DAG with GOMAXPROCS workers (fewer when there
// are fewer tasks) — the width the engine's shard fan-out and ingest also
// use. On the first task error (or context cancellation) remaining tasks
// are skipped but still drained, so the pool always terminates; the first
// error wins.
func runTaskPool(ctx context.Context, tasks []*schedTask) error {
	if len(tasks) == 0 {
		return nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(tasks))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Every task is sent to ready exactly once, so the buffer makes all
	// sends non-blocking and completion can safely close the channel.
	ready := make(chan *schedTask, len(tasks))
	pending := int32(len(tasks))
	var errOnce sync.Once
	var firstErr error
	complete := func(t *schedTask) {
		for _, d := range t.dependents {
			if atomic.AddInt32(&d.deps, -1) == 0 {
				ready <- d
			}
		}
		if atomic.AddInt32(&pending, -1) == 0 {
			close(ready)
		}
	}
	// Seed the initially-ready tasks before any worker starts: once
	// workers run, complete() also enqueues tasks whose deps reach zero,
	// and seeding concurrently could observe such a task and enqueue it
	// twice. The buffer holds every task, so seeding cannot block.
	for _, t := range tasks {
		if t.deps == 0 {
			ready <- t
		}
	}
	// A panicking task (a bug; no seeker panics by design) must still run
	// complete(t) — the ready channel never closes otherwise — so capture
	// the panic, cancel the rest of the plan, and re-raise it on the
	// calling goroutine once the workers drain (see repanic).
	var panicOnce sync.Once
	taskPanic := make([]any, 1)
	runTask := func(t *schedTask) (err error) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() {
					taskPanic[0] = r
					cancel()
				})
			}
		}()
		return t.run()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ready {
				if cctx.Err() == nil {
					if err := runTask(t); err != nil {
						errOnce.Do(func() {
							firstErr = err
							cancel()
						})
					}
				}
				complete(t)
			}
		}()
	}
	wg.Wait()
	repanic(taskPanic)
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// emissionOrder computes the deterministic SeekerOrder: a dry run of a
// one-at-a-time depth-first resolver that records which seeker it would
// execute when, without touching the index, so plan diagnostics are stable
// under concurrency.
func (x *planExec) emissionOrder(topo []string) []string {
	done := make(map[string]bool, len(x.p.nodes))
	order := make([]string, 0, len(x.p.nodes))
	var visit func(id string)
	visit = func(id string) {
		if done[id] {
			return
		}
		n := x.p.nodes[id]
		if n.isSeeker() {
			if g := x.groupOf[id]; g != nil {
				for _, m := range x.rankedOf[g.combiner] {
					done[m] = true
					order = append(order, m)
				}
				return
			}
			if sub, ok := x.excludeFrom[id]; ok {
				visit(sub)
			}
			done[id] = true
			order = append(order, id)
			return
		}
		done[id] = true
		if x.optimize && n.combiner.Kind() == Difference && len(n.inputs) == 2 {
			visit(n.inputs[1])
		}
		for _, in := range n.inputs {
			visit(in)
		}
	}
	for _, id := range topo {
		visit(id)
	}
	return order
}
