package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"blend/internal/storage"
	"blend/internal/table"
)

// schedLake generates a deterministic random lake with shared vocabulary,
// numeric columns, and enough tables for interesting plans.
func schedLake(seed int64, numTables int) []*table.Table {
	rng := rand.New(rand.NewSource(seed))
	tables := make([]*table.Table, 0, numTables)
	for ti := 0; ti < numTables; ti++ {
		t := table.New(fmt.Sprintf("L%d", ti), "Key", "Aux", "Num")
		rows := 6 + rng.Intn(10)
		for r := 0; r < rows; r++ {
			t.MustAppendRow(
				"v"+strconv.Itoa(rng.Intn(30)),
				"a"+strconv.Itoa(rng.Intn(20)),
				strconv.Itoa(rng.Intn(100)),
			)
		}
		t.InferKinds()
		tables = append(tables, t)
	}
	return tables
}

// randomVals draws n random vocabulary values.
func randomVals(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "v" + strconv.Itoa(rng.Intn(30))
	}
	return out
}

// randomMixedPlan builds a plan exercising every scheduler shape: an
// execution group (Intersect over exclusively-owned seekers), a
// Difference-rewrite chain, and a Union/Counter fan-out of free seekers.
func randomMixedPlan(rng *rand.Rand) *Plan {
	p := NewPlan()
	// Execution group: 2-3 exclusive seekers under one Intersect.
	groupN := 2 + rng.Intn(2)
	groupIDs := make([]string, 0, groupN)
	for i := 0; i < groupN; i++ {
		id := fmt.Sprintf("g%d", i)
		p.MustAddSeeker(id, NewSC(randomVals(rng, 3+rng.Intn(4)), 10))
		groupIDs = append(groupIDs, id)
	}
	p.MustAddCombiner("inter", NewIntersect(10), groupIDs...)
	// Difference-rewrite chain: exclusive minuend, seeker subtrahend.
	p.MustAddSeeker("minuend", NewKW(randomVals(rng, 4), 10))
	p.MustAddSeeker("subtra", NewKW(randomVals(rng, 2), 5))
	p.MustAddCombiner("diff", NewDifference(10), "minuend", "subtra")
	// Free seekers fanned into a Counter.
	p.MustAddSeeker("free1", NewKW(randomVals(rng, 3), 10))
	tuples := [][]string{{randomVals(rng, 1)[0], "a" + strconv.Itoa(rng.Intn(20))}}
	p.MustAddSeeker("free2", NewMC(tuples, 10))
	p.MustAddCombiner("count", NewCounter(10), "free1", "free2", "diff")
	// Roof: Union of everything.
	p.MustAddCombiner("all", NewUnion(15), "inter", "count")
	return p
}

// The sequential reference: Engine.Run always executes on the DAG
// scheduler, and the tests below check it against this one-at-a-time
// depth-first resolver over the same node helpers.

// done reports whether a node already has a result.
func (x *planExec) done(id string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, ok := x.res.NodeHits[id]
	return ok
}

// runSequential resolves nodes depth-first in topological order — the
// reference execution whose results the scheduler must reproduce bit for
// bit.
func (x *planExec) runSequential(ctx context.Context, topo []string) error {
	var resolve func(id string) error
	resolve = func(id string) error {
		if x.done(id) {
			return nil
		}
		n := x.p.nodes[id]
		if n.isSeeker() {
			if g := x.groupOf[id]; g != nil {
				return x.runGroup(ctx, g)
			}
			if sub, ok := x.excludeFrom[id]; ok {
				if err := resolve(sub); err != nil {
					return err
				}
				return x.runSeeker(ctx, id, ExcludeTables(x.hitsOf(sub).TableIDs()))
			}
			return x.runSeeker(ctx, id, NoRewrite)
		}
		// Combiner: resolve inputs first. For Difference the subtrahend
		// resolves before the minuend so its result can rewrite the
		// minuend's SQL.
		if x.optimize && n.combiner.Kind() == Difference && len(n.inputs) == 2 {
			if err := resolve(n.inputs[1]); err != nil {
				return err
			}
		}
		for _, in := range n.inputs {
			if err := resolve(in); err != nil {
				return err
			}
		}
		return x.runCombiner(ctx, id)
	}
	for _, id := range topo {
		if err := resolve(id); err != nil {
			return err
		}
	}
	return nil
}

// runReference executes p like Engine.Run against the current generation,
// but with the sequential resolver instead of the scheduler. The result
// carries NodeHits, Tables, SeekerOrder and CompletionOrder.
func runReference(t *testing.T, e *Engine, p *Plan, opts RunOptions) *PlanResult {
	t.Helper()
	sn, err := e.pin(0)
	if err != nil {
		t.Fatal(err)
	}
	ex, topo, err := newPlanExec(&view{Engine: e, sn: sn}, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.runSequential(context.Background(), topo); err != nil {
		t.Fatal(err)
	}
	res := ex.res
	res.SeekerOrder = ex.emissionOrder(topo)
	res.CompletionOrder = ex.completion
	res.Tables = ex.v.tableNames(res.NodeHits[p.output])
	return res
}

// withGOMAXPROCS sets the scheduler's width (GOMAXPROCS) to n for the rest
// of the test and restores it afterwards.
func withGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// schedulerWidths are the GOMAXPROCS values the differential tests run
// the scheduler at: a single worker, and four.
var schedulerWidths = []int{1, 4}

// TestSchedulerMatchesSequential property-tests the core invariant: the
// scheduler must produce NodeHits identical to the sequential reference,
// with and without the optimizer, at one worker and at four, on plans
// mixing execution groups, Difference rewrites, and Union/Counter
// fan-outs.
func TestSchedulerMatchesSequential(t *testing.T) {
	e := NewEngine(storage.Build(schedLake(42, 14), 1))
	for _, width := range schedulerWidths {
		t.Run(fmt.Sprintf("gomaxprocs=%d", width), func(t *testing.T) {
			withGOMAXPROCS(t, width)
			rng := rand.New(rand.NewSource(43))
			for trial := 0; trial < 20; trial++ {
				p := randomMixedPlan(rng)
				for _, optimize := range []bool{false, true} {
					seq := runReference(t, e, p, RunOptions{Optimize: optimize})
					par, err := e.Run(context.Background(), p, RunOptions{Optimize: optimize})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seq.NodeHits, par.NodeHits) {
						t.Fatalf("trial %d optimize=%v: NodeHits differ\nseq: %v\npar: %v",
							trial, optimize, seq.NodeHits, par.NodeHits)
					}
					if !reflect.DeepEqual(seq.Tables, par.Tables) {
						t.Fatalf("trial %d optimize=%v: output differs", trial, optimize)
					}
				}
			}
		})
	}
}

// TestSchedulerMatchesSequentialSharded repeats the invariant on a sharded
// index, covering the concurrent per-shard native fan-out as well.
func TestSchedulerMatchesSequentialSharded(t *testing.T) {
	lake := schedLake(77, 14)
	mono := NewEngine(storage.Build(lake, 1))
	shard := NewEngine(storage.Build(lake, 4))
	for _, width := range schedulerWidths {
		t.Run(fmt.Sprintf("gomaxprocs=%d", width), func(t *testing.T) {
			withGOMAXPROCS(t, width)
			rng := rand.New(rand.NewSource(78))
			for trial := 0; trial < 10; trial++ {
				p := randomMixedPlan(rng)
				ref := runReference(t, mono, p, RunOptions{Optimize: true})
				got, err := shard.Run(context.Background(), p, RunOptions{Optimize: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref.NodeHits, got.NodeHits) {
					t.Fatalf("trial %d: sharded scheduled NodeHits differ from monolithic sequential", trial)
				}
			}
		})
	}
}

// TestSeekerOrderDeterministicUnderParallel covers the SeekerOrder
// contract: identical across repeated scheduled runs and equal to the
// sequential reference's order, even though completion order varies.
func TestSeekerOrderDeterministicUnderParallel(t *testing.T) {
	e := NewEngine(storage.Build(schedLake(7, 12), 1))
	p := randomMixedPlan(rand.New(rand.NewSource(8)))
	seq := runReference(t, e, p, RunOptions{Optimize: true})
	if !reflect.DeepEqual(seq.SeekerOrder, seq.CompletionOrder) {
		t.Fatalf("sequential SeekerOrder %v must match its completion order %v",
			seq.SeekerOrder, seq.CompletionOrder)
	}
	for _, width := range schedulerWidths {
		t.Run(fmt.Sprintf("gomaxprocs=%d", width), func(t *testing.T) {
			withGOMAXPROCS(t, width)
			for i := 0; i < 5; i++ {
				par, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(par.SeekerOrder, seq.SeekerOrder) {
					t.Fatalf("scheduled SeekerOrder %v != sequential %v", par.SeekerOrder, seq.SeekerOrder)
				}
				if len(par.CompletionOrder) != len(seq.CompletionOrder) {
					t.Fatalf("scheduled run completed %d seekers, want %d",
						len(par.CompletionOrder), len(seq.CompletionOrder))
				}
			}
		})
	}
}

// blockingSeeker is a test double whose run blocks until released,
// signalling when it starts — a barrier proving true concurrency.
type blockingSeeker struct {
	started chan string
	release chan struct{}
	id      string
}

func (s *blockingSeeker) Kind() SeekerKind                       { return KW }
func (s *blockingSeeker) TopK() int                              { return 1 }
func (s *blockingSeeker) estimate(*storage.ShardedStore) float64 { return 1 }
func (s *blockingSeeker) SQL(Rewrite) string                     { return "" }
func (s *blockingSeeker) empty() bool                            { return false }
func (s *blockingSeeker) native(ctx context.Context, v *view, rw Rewrite) (Hits, scanCounts, error) {
	s.started <- s.id
	select {
	case <-s.release:
		return Hits{{TableID: 0, Score: 1}}, scanCounts{}, nil
	case <-ctx.Done():
		return nil, scanCounts{}, ctx.Err()
	}
}
func (s *blockingSeeker) oracle(ctx context.Context, v *view, rw Rewrite) (Hits, scanCounts, error) {
	return s.native(ctx, v, rw)
}

// panicSeeker is a test double whose every execution panics.
type panicSeeker struct{ blockingSeeker }

func (s *panicSeeker) native(context.Context, *view, Rewrite) (Hits, scanCounts, error) {
	panic("seeker bug")
}
func (s *panicSeeker) oracle(ctx context.Context, v *view, rw Rewrite) (Hits, scanCounts, error) {
	return s.native(ctx, v, rw)
}

// TestRunRepanicsSeekerPanicOnCaller checks that a seeker panicking on a
// scheduler worker does not kill the process: Engine.Run re-raises the
// panic on the calling goroutine, where a deferred recover catches it,
// and the engine still answers the next plan.
func TestRunRepanicsSeekerPanicOnCaller(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("bad", &panicSeeker{})
	p.MustAddSeeker("kw", NewKW(departments, 5))
	p.MustAddCombiner("any", NewUnion(5), "bad", "kw")
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run(context.Background(), p, RunOptions{})
		return nil
	}()
	if got != "seeker bug" {
		t.Fatalf("recovered %v on the caller, want the seeker's panic", got)
	}
	ok := NewPlan()
	ok.MustAddSeeker("kw", NewKW(departments, 5))
	if _, err := e.Run(context.Background(), ok, RunOptions{}); err != nil {
		t.Fatalf("engine unusable after a recovered seeker panic: %v", err)
	}
}

// TestIndependentSeekersRunConcurrently is the acceptance check: four
// independent seekers on a 4-shard index must overlap in time under the
// scheduler at GOMAXPROCS 4. Each seeker blocks until all four have
// started, so the test deadlocks (and times out) if the pool serializes
// them; the worker-pool instrumentation must report the overlap.
func TestIndependentSeekersRunConcurrently(t *testing.T) {
	withGOMAXPROCS(t, 4)
	e := NewEngine(storage.Build(schedLake(11, 12), 4))
	started := make(chan string, 4)
	release := make(chan struct{})
	p := NewPlan()
	ids := []string{"s0", "s1", "s2", "s3"}
	for _, id := range ids {
		p.MustAddSeeker(id, &blockingSeeker{started: started, release: release, id: id})
	}
	p.MustAddCombiner("any", NewUnion(5), ids...)

	type outcome struct {
		res *PlanResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Run(context.Background(), p, RunOptions{})
		done <- outcome{res, err}
	}()
	// All four seekers must reach their barrier while blocked — only
	// possible if they run simultaneously.
	for i := 0; i < 4; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 4 independent seekers started concurrently", i)
		}
	}
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if want := min(4, runtime.GOMAXPROCS(0)); out.res.PeakConcurrency != want {
		t.Fatalf("PeakConcurrency = %d, want %d", out.res.PeakConcurrency, want)
	}
}

// TestRunPreCancelledContext covers prompt cancellation: a context
// cancelled before Run starts must abort without executing any seeker.
func TestRunPreCancelledContext(t *testing.T) {
	e := fig1Engine()
	p := NewPlan()
	p.MustAddSeeker("kw", NewKW(departments, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.Run(ctx, p, RunOptions{Optimize: true}); err == nil {
		t.Fatal("pre-cancelled context must fail")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation not prompt")
	}
}

// TestRunCancelMidPlan cancels while seekers are blocked mid-execution;
// Run must return the context error instead of hanging. Both seekers block
// at once, so the scheduler needs two workers.
func TestRunCancelMidPlan(t *testing.T) {
	withGOMAXPROCS(t, 2)
	e := fig1Engine()
	started := make(chan string, 2)
	release := make(chan struct{}) // never closed: only ctx can unblock
	p := NewPlan()
	p.MustAddSeeker("b0", &blockingSeeker{started: started, release: release, id: "b0"})
	p.MustAddSeeker("b1", &blockingSeeker{started: started, release: release, id: "b1"})
	p.MustAddCombiner("u", NewUnion(5), "b0", "b1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, p, RunOptions{})
		done <- err
	}()
	<-started
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run must return an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

// TestRunSeekerContext covers single-seeker cancellation.
func TestRunSeekerContext(t *testing.T) {
	e := fig1Engine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.RunSeeker(ctx, NewKW(departments, 5)); err == nil {
		t.Fatal("pre-cancelled seeker run must fail")
	}
	if hits, _, err := e.RunSeeker(context.Background(), NewKW(departments, 5)); err != nil || len(hits) == 0 {
		t.Fatalf("live context run failed: %v %v", hits, err)
	}
}

// TestShardedEngineSeekersMatchMonolithic runs every real seeker kind
// against monolithic and sharded engines and requires identical hits —
// the merge-exactness property the partitioning-by-table guarantees.
func TestShardedEngineSeekersMatchMonolithic(t *testing.T) {
	lake := schedLake(21, 16)
	mono := NewEngine(storage.Build(lake, 1))
	shard := NewEngine(storage.Build(lake, 4))
	if shard.NumShards() != 4 {
		t.Fatalf("NumShards = %d", shard.NumShards())
	}
	keys := make([]string, 12)
	targets := make([]float64, 12)
	for i := range keys {
		keys[i] = "v" + strconv.Itoa(i)
		targets[i] = float64(i * i % 17)
	}
	seekers := []Seeker{
		NewKW([]string{"v1", "v2", "v3", "v4"}, 8),
		NewSC([]string{"v5", "v6", "v7"}, 8),
		NewMC([][]string{{"v1", "a1"}, {"v2", "a2"}}, 8),
		NewCorrelation(keys, targets, 8),
	}
	for i, s := range seekers {
		h1, _, err := mono.RunSeeker(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		h2, _, err := shard.RunSeeker(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h1, h2) {
			t.Fatalf("seeker %d (%v): monolithic %v != sharded %v", i, s.Kind(), h1, h2)
		}
	}
}

// TestSchedulerRunsEachTaskOnce guards the pool-seeding race: under heavy
// fan-out with fast tasks, every seeker must execute exactly once (no
// double enqueue when a dependent becomes ready while initial tasks are
// still being seeded), and no more than GOMAXPROCS seekers may overlap.
func TestSchedulerRunsEachTaskOnce(t *testing.T) {
	withGOMAXPROCS(t, 4)
	e := NewEngine(storage.Build(schedLake(3, 10), 1))
	p := NewPlan()
	ids := make([]string, 0, 12)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("s%d", i)
		p.MustAddSeeker(id, NewKW([]string{"v" + strconv.Itoa(i%5)}, 5))
		ids = append(ids, id)
	}
	p.MustAddCombiner("u1", NewUnion(10), ids[:6]...)
	p.MustAddCombiner("u2", NewUnion(10), ids[6:]...)
	p.MustAddCombiner("all", NewCounter(10), "u1", "u2")
	for trial := 0; trial < 30; trial++ {
		res, err := e.Run(context.Background(), p, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The seekers are too fast to guarantee an overlap, so the pool
		// width is asserted as a bound.
		if limit := min(4, runtime.GOMAXPROCS(0)); res.PeakConcurrency < 1 || res.PeakConcurrency > limit {
			t.Fatalf("trial %d: PeakConcurrency = %d, want 1..%d", trial, res.PeakConcurrency, limit)
		}
		if len(res.CompletionOrder) != len(ids) {
			t.Fatalf("trial %d: %d completions for %d seekers: %v",
				trial, len(res.CompletionOrder), len(ids), res.CompletionOrder)
		}
		seen := make(map[string]bool, len(ids))
		for _, id := range res.CompletionOrder {
			if seen[id] {
				t.Fatalf("trial %d: seeker %s completed twice", trial, id)
			}
			seen[id] = true
		}
	}
}
