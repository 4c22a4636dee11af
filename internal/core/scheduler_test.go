package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"blend/internal/costmodel"
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

// TestSchedulerMatchesSequential property-tests the core invariant: the
// concurrent scheduler must produce NodeHits identical to sequential
// execution, with and without the optimizer, on plans mixing execution
// groups, Difference rewrites, and Union/Counter fan-outs.
func TestSchedulerMatchesSequential(t *testing.T) {
	e := NewEngine(storage.Build(schedLake(42, 14), 1))
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		p := randomMixedPlan(rng)
		for _, optimize := range []bool{false, true} {
			seq, err := e.Run(context.Background(), p, RunOptions{Optimize: optimize})
			if err != nil {
				t.Fatal(err)
			}
			par, err := e.Run(context.Background(), p, RunOptions{Optimize: optimize, Parallel: true, MaxWorkers: 4})
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
}

// TestSchedulerMatchesSequentialSharded repeats the invariant on a sharded
// index, covering the concurrent per-shard native fan-out as well.
func TestSchedulerMatchesSequentialSharded(t *testing.T) {
	lake := schedLake(77, 14)
	mono := NewEngine(storage.Build(lake, 1))
	shard := NewEngine(storage.Build(lake, 4))
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 10; trial++ {
		p := randomMixedPlan(rng)
		ref, err := mono.Run(context.Background(), p, RunOptions{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := shard.Run(context.Background(), p, RunOptions{Optimize: true, Parallel: true, MaxWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.NodeHits, got.NodeHits) {
			t.Fatalf("trial %d: sharded parallel NodeHits differ from monolithic sequential", trial)
		}
	}
}

// TestSeekerOrderDeterministicUnderParallel covers the SeekerOrder
// contract: identical across repeated parallel runs and equal to the
// sequential order, even though completion order varies.
func TestSeekerOrderDeterministicUnderParallel(t *testing.T) {
	e := NewEngine(storage.Build(schedLake(7, 12), 1))
	p := randomMixedPlan(rand.New(rand.NewSource(8)))
	seq, err := e.Run(context.Background(), p, RunOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.SeekerOrder, seq.CompletionOrder) {
		t.Fatalf("sequential SeekerOrder %v must match its completion order %v",
			seq.SeekerOrder, seq.CompletionOrder)
	}
	for i := 0; i < 5; i++ {
		par, err := e.Run(context.Background(), p, RunOptions{Optimize: true, Parallel: true, MaxWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.SeekerOrder, seq.SeekerOrder) {
			t.Fatalf("parallel SeekerOrder %v != sequential %v", par.SeekerOrder, seq.SeekerOrder)
		}
		if len(par.CompletionOrder) != len(seq.CompletionOrder) {
			t.Fatalf("parallel completed %d seekers, want %d",
				len(par.CompletionOrder), len(seq.CompletionOrder))
		}
	}
}

// blockingSeeker is a test double whose run blocks until released,
// signalling when it starts — a barrier proving true concurrency.
type blockingSeeker struct {
	started chan string
	release chan struct{}
	id      string
}

func (s *blockingSeeker) Kind() SeekerKind { return KW }
func (s *blockingSeeker) TopK() int        { return 1 }
func (s *blockingSeeker) Features(*storage.ShardedStore) costmodel.Features {
	return costmodel.Features{Card: 1, Cols: 1, AvgFreq: 1}
}
func (s *blockingSeeker) SQL(Rewrite) string { return "" }
func (s *blockingSeeker) run(ctx context.Context, v *view, rw Rewrite) (Hits, RunStats, error) {
	s.started <- s.id
	select {
	case <-s.release:
		return Hits{{TableID: 0, Score: 1}}, RunStats{Kind: KW}, nil
	case <-ctx.Done():
		return nil, RunStats{}, ctx.Err()
	}
}

// TestIndependentSeekersRunConcurrently is the acceptance check: four
// independent seekers on a 4-shard index must overlap in time under the
// scheduler. Each seeker blocks until all four have started, so the test
// deadlocks (and times out) if the pool serializes them; the worker-pool
// instrumentation must report the overlap.
func TestIndependentSeekersRunConcurrently(t *testing.T) {
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
		res, err := e.Run(context.Background(), p, RunOptions{Parallel: true, MaxWorkers: 4})
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
	if out.res.PeakConcurrency != 4 {
		t.Fatalf("PeakConcurrency = %d, want 4", out.res.PeakConcurrency)
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
	for _, parallel := range []bool{false, true} {
		start := time.Now()
		_, err := e.Run(ctx, p, RunOptions{Optimize: true, Parallel: parallel})
		if err == nil {
			t.Fatalf("parallel=%v: pre-cancelled context must fail", parallel)
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("parallel=%v: cancellation not prompt", parallel)
		}
	}
}

// TestRunCancelMidPlan cancels while seekers are blocked mid-execution;
// Run must return the context error instead of hanging.
func TestRunCancelMidPlan(t *testing.T) {
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
		_, err := e.Run(ctx, p, RunOptions{Parallel: true, MaxWorkers: 2})
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
// still being seeded).
func TestSchedulerRunsEachTaskOnce(t *testing.T) {
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
		res, err := e.Run(context.Background(), p, RunOptions{Parallel: true, MaxWorkers: 8})
		if err != nil {
			t.Fatal(err)
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
