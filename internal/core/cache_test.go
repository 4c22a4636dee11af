package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"blend/internal/storage"
	"blend/internal/table"
)

func cacheTestEngine(capacity int) *Engine {
	e := NewEngine(storage.Build(fig1Lake(), 1))
	e.SetResultCache(capacity)
	return e
}

// TestResultCacheHit asserts the second identical seek is served from the
// cache with identical results and the original path preserved.
func TestResultCacheHit(t *testing.T) {
	e := cacheTestEngine(16)
	s := NewKW([]string{"HR", "IT", "Marketing"}, 5)
	first, st1, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first run must miss")
	}
	second, st2, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("second run must hit the cache")
	}
	if st2.Path != st1.Path {
		t.Fatalf("cached path %q, want original %q", st2.Path, st1.Path)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached hits differ: %v vs %v", second, first)
	}
	cs := e.ResultCacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("unexpected stats %+v", cs)
	}

	// An equivalent seeker built separately must share the entry…
	if _, st3, _ := e.RunSeeker(context.Background(), NewKW([]string{"HR", "IT", "Marketing"}, 5)); !st3.CacheHit {
		t.Fatal("identical seeker must hit")
	}
	// …while different k, different values, or a rewrite must not.
	if _, st4, _ := e.RunSeeker(context.Background(), NewKW([]string{"HR", "IT", "Marketing"}, 4)); st4.CacheHit {
		t.Fatal("different k must miss")
	}
	v, releaseV := testView(t, e)
	defer releaseV()
	if _, st5, err := v.runSeekerCached(context.Background(), s, ExcludeTables([]int32{0})); err != nil || st5.CacheHit {
		t.Fatalf("rewritten run must miss (err %v)", err)
	}
	if _, st6, err := v.runSeekerCached(context.Background(), s, ExcludeTables([]int32{0})); err != nil || !st6.CacheHit {
		t.Fatalf("repeated rewritten run must hit (err %v)", err)
	}
}

// TestResultCacheInvalidationOnAddTable asserts a post-AddTable run
// misses (the generation moved, so the warm key is unreachable) and that
// with a retention window of one the publish sweeps the dead
// generation's entry in the same call.
func TestResultCacheInvalidationOnAddTable(t *testing.T) {
	e := cacheTestEngine(16)
	e.SetRetention(1)
	s := NewKW([]string{"HR", "IT", "Marketing"}, 10)
	before, _, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, _ := e.RunSeeker(context.Background(), s); !st.CacheHit {
		t.Fatal("warm-up must hit")
	}

	// The new table matches all three keywords, so it must appear in the
	// post-mutation result.
	nt := table.New("T9", "Team")
	nt.MustAppendRow("HR")
	nt.MustAppendRow("IT")
	nt.MustAppendRow("Marketing")
	ids, err := e.AddTables([]*table.Table{nt})
	if err != nil {
		t.Fatal(err)
	}
	tid := ids[0]

	after, st, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("post-AddTable run must miss: the cache was invalidated")
	}
	if !after.Contains(tid) {
		t.Fatalf("new table %d missing from post-mutation result %v", tid, after)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("result unchanged after indexing a better-matching table")
	}
	if cs := e.ResultCacheStats(); cs.Invalidations != 1 {
		t.Fatalf("expected 1 invalidation, got %+v", cs)
	}
}

// TestResultCacheLRUEviction asserts the capacity bound evicts the
// least-recently-used entry first.
func TestResultCacheLRUEviction(t *testing.T) {
	e := cacheTestEngine(2)
	ctx := context.Background()
	a := NewKW([]string{"HR"}, 5)
	b := NewKW([]string{"IT"}, 5)
	c := NewKW([]string{"Sales"}, 5)
	for _, s := range []Seeker{a, b} {
		if _, _, err := e.RunSeeker(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh a, insert c: b is now the LRU and must be evicted.
	if _, st, _ := e.RunSeeker(ctx, a); !st.CacheHit {
		t.Fatal("a must hit")
	}
	if _, _, err := e.RunSeeker(ctx, c); err != nil {
		t.Fatal(err)
	}
	if cs := e.ResultCacheStats(); cs.Entries != 2 {
		t.Fatalf("expected 2 resident entries, got %+v", cs)
	}
	if _, st, _ := e.RunSeeker(ctx, a); !st.CacheHit {
		t.Fatal("a should have survived")
	}
	if _, st, _ := e.RunSeeker(ctx, b); st.CacheHit {
		t.Fatal("b should have been evicted")
	}
}

// TestResultCacheImmutability asserts mutating a returned hit list cannot
// corrupt the cached entry.
func TestResultCacheImmutability(t *testing.T) {
	e := cacheTestEngine(8)
	s := NewKW([]string{"HR", "IT"}, 5)
	first, _, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("expected hits")
	}
	want := append(Hits(nil), first...)
	first[0] = TableHit{TableID: 999, Score: -1}
	again, _, err := e.RunSeeker(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("cached entry corrupted: %v, want %v", again, want)
	}
}

// TestResultCacheConcurrent hammers the cache from many goroutines —
// mixed hits, misses, evictions — concurrently with AddTable
// invalidations. It exists to run under -race (the CI race suite covers
// this package); correctness here is "no race, no panic, sane results".
func TestResultCacheConcurrent(t *testing.T) {
	e := cacheTestEngine(4)
	queries := [][]string{
		{"HR"}, {"IT"}, {"Sales"}, {"Marketing"}, {"Finance"}, {"HR", "IT"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := e.RunSeeker(context.Background(), NewKW(q, 3)); err != nil {
					t.Errorf("seek: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			nt := table.New(fmt.Sprintf("C%d", i), "Team")
			nt.MustAppendRow("HR")
			if _, err := e.AddTables([]*table.Table{nt}); err != nil {
				t.Errorf("add: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	cs := e.ResultCacheStats()
	if cs.Hits+cs.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	// Sweeps follow the retention window: each AddTable publish can evict
	// at most one generation, and only sweeps that drop a resident entry
	// count — an upper bound, not an exact figure, under concurrency.
	if cs.Invalidations > 10 {
		t.Fatalf("more invalidations than publishes: %+v", cs)
	}
}

// TestResultCacheEligibility pins the cache-eligibility matrix for the
// non-trivial kinds: correlation runs (native fast path included) are
// cached under a key that folds in the sample size h, so changing
// SampleH misses rather than serving a result computed under a different
// sample; semantic runs never touch the cache in either direction.
func TestResultCacheEligibility(t *testing.T) {
	e := cacheTestEngine(16)
	ctx := context.Background()
	keys := []string{"Finance", "Marketing", "HR", "IT", "Sales"}
	targets := []float64{31, 28, 33, 92, 80}

	first, st1, err := e.RunSeeker(ctx, NewCorrelation(keys, targets, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit || st1.Path != PathNative {
		t.Fatalf("first correlation run: %+v, want native-path miss", st1)
	}
	second, st2, err := e.RunSeeker(ctx, NewCorrelation(keys, targets, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.Path != PathNative {
		t.Fatalf("repeat correlation run: %+v, want cached hit with native path", st2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached correlation hits differ: %v vs %v", second, first)
	}
	// Different targets and a different sample size must both miss.
	bumped := append([]float64(nil), targets...)
	bumped[0]++
	if _, st, _ := e.RunSeeker(ctx, NewCorrelation(keys, bumped, 5)); st.CacheHit {
		t.Fatal("different targets must miss")
	}
	e.SampleH = e.SampleH / 2
	if _, st, _ := e.RunSeeker(ctx, NewCorrelation(keys, targets, 5)); st.CacheHit {
		t.Fatal("changed SampleH must miss")
	}

	// Semantic seeks bypass the cache entirely: same query twice, no hit,
	// and no cache entries or lookups recorded beyond the correlation ones.
	before := e.ResultCacheStats()
	for i := 0; i < 2; i++ {
		if _, st, err := e.RunSeeker(ctx, NewSemantic([]string{"Harry Potter", "Luna Lovegood"}, 3)); err != nil || st.CacheHit {
			t.Fatalf("semantic run %d: err %v, stats %+v, want uncached", i, err, st)
		}
	}
	after := e.ResultCacheStats()
	if after != before {
		t.Fatalf("semantic seeks touched the cache: %+v -> %+v", before, after)
	}
}

// TestCacheDisabledByDefault asserts a fresh engine performs no caching
// until configured — experiments and benchmarks measure real executions.
func TestCacheDisabledByDefault(t *testing.T) {
	e := NewEngine(storage.Build(fig1Lake(), 1))
	s := NewKW([]string{"HR"}, 5)
	for i := 0; i < 2; i++ {
		if _, st, err := e.RunSeeker(context.Background(), s); err != nil || st.CacheHit {
			t.Fatalf("run %d: err %v, cacheHit %v", i, err, st.CacheHit)
		}
	}
	if cs := e.ResultCacheStats(); cs != (CacheStats{}) {
		t.Fatalf("expected zero stats, got %+v", cs)
	}
}
