package core

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
)

// The engine's result cache memoizes seeker top-k lists across queries:
// repeated /v1/seek and /v1/query traffic over an unchanged index returns
// the cached list instead of rescanning posting lists (or interpreting
// SQL). Entries are keyed by (seeker fingerprint, rewrite, store
// generation), so a lookup can only ever hit a result computed at the
// exact generation it executes against — mutations publish new generations
// and therefore new key spaces. The cache is opt-in
// (Engine.SetResultCache) so library benchmarks and the paper-reproduction
// experiments keep measuring real executions.
//
// Invalidation follows the retention window, not individual mutations:
//
//   - Entries for generations still inside the window stay resident and
//     valid — a WithAsOf / Snapshot query pinned to generation g hits the
//     results memoized when g was current, and traffic racing an ingest
//     keeps its warm keys until the window moves past them.
//   - When a generation falls out of the window (publish beyond the bound,
//     SetRetention shrinking it), sweepBelow removes every entry below the
//     oldest retained generation in one bounded pass. That keeps
//     retained-history memory accounted: an unreachable entry is dropped
//     when its generation dies, not when LRU pressure happens to evict it.
//   - Compact reassigns table ids, but needs no special casing: its
//     entries are only reachable under pre-compaction generation keys,
//     which only pre-compaction snapshots — whose stores still use the old
//     ids — can look up.

// CacheStats summarizes the engine result cache for operators
// (Engine.ResultCacheStats, the service's `/v1/stats`).
type CacheStats struct {
	// Capacity is the configured entry bound; 0 means the cache is
	// disabled.
	Capacity int
	// Entries is the current resident entry count.
	Entries int
	// Hits / Misses count lookups since the cache was configured.
	Hits   uint64
	Misses uint64
	// Invalidations counts retention sweeps that dropped at least one
	// entry (a generation left the retention window with results still
	// memoized).
	Invalidations uint64
}

// cacheEntry is one memoized seeker result.
type cacheEntry struct {
	key  string
	gen  uint64 // generation the result was computed at, for sweepBelow
	hits Hits
	path string // execution path that produced the entry
}

// resultCache is a mutex-guarded LRU over seeker results. Get returns (and
// Put stores) defensive copies, so cached hit lists are immutable no
// matter what callers do with the slices they receive.
type resultCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List
	idx           map[string]*list.Element
	hits          uint64
	misses        uint64
	invalidations uint64
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		idx: make(map[string]*list.Element, capacity),
	}
}

// get looks a key up, refreshing its recency on hit.
func (c *resultCache) get(key string) (Hits, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.misses++
		return nil, "", false
	}
	c.hits++
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return append(Hits(nil), ent.hits...), ent.path, true
}

// put inserts (or refreshes) a key, evicting the least-recently-used entry
// beyond capacity.
func (c *resultCache) put(key string, gen uint64, h Hits, path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.hits = append(Hits(nil), h...)
		ent.path = path
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, gen: gen, hits: append(Hits(nil), h...), path: path})
	c.idx[key] = el
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.idx, back.Value.(*cacheEntry).key)
	}
}

// sweepBelow drops every entry computed at a generation below minGen — the
// bounded sweep the engine runs when generations leave the retention
// window, so dead-generation results do not stay resident until LRU
// pressure reaches them. One O(entries) pass per eviction batch; counters
// survive so operators see cumulative hit rates.
func (c *resultCache) sweepBelow(minGen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := false
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); ent.gen < minGen {
			c.ll.Remove(el)
			delete(c.idx, ent.key)
			removed = true
		}
		el = next
	}
	if removed {
		c.invalidations++
	}
}

// stats snapshots the cache counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:      c.cap,
		Entries:       c.ll.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
	}
}

// appendLenPrefixed writes a length-prefixed string, making fingerprints
// injective regardless of the bytes values contain.
func appendLenPrefixed(sb *strings.Builder, s string) {
	sb.WriteString(strconv.Itoa(len(s)))
	sb.WriteByte(':')
	sb.WriteString(s)
}

// seekerFingerprint renders a deterministic, collision-free identity for
// the relational seeker kinds — SC, KW, MC and Correlation (the sampled h
// that shapes a correlation result is part of the cache key, see
// cacheKey). It returns false for the semantic seeker, which is never
// cached: its embedding index is already built once per generation, and
// leaving it out keeps the cache's capacity and hit counts to the
// posting-list kinds.
func seekerFingerprint(sb *strings.Builder, s Seeker) bool {
	switch x := s.(type) {
	case *SCSeeker:
		sb.WriteString("sc|")
		sb.WriteString(strconv.Itoa(x.K))
		sb.WriteByte('|')
		for _, v := range x.Values {
			appendLenPrefixed(sb, v)
		}
	case *KWSeeker:
		sb.WriteString("kw|")
		sb.WriteString(strconv.Itoa(x.K))
		sb.WriteByte('|')
		for _, v := range x.Keywords {
			appendLenPrefixed(sb, v)
		}
	case *MCSeeker:
		sb.WriteString("mc|")
		sb.WriteString(strconv.Itoa(x.K))
		sb.WriteByte('|')
		for _, t := range x.Tuples {
			sb.WriteString("r")
			sb.WriteString(strconv.Itoa(len(t)))
			sb.WriteByte('|')
			for _, v := range t {
				appendLenPrefixed(sb, v)
			}
		}
	case *CorrelationSeeker:
		sb.WriteString("c|")
		sb.WriteString(strconv.Itoa(x.K))
		sb.WriteByte('|')
		for i, key := range x.Keys {
			appendLenPrefixed(sb, key)
			sb.WriteString(strconv.FormatFloat(x.Targets[i], 'g', -1, 64))
			sb.WriteByte('|')
		}
	default:
		return false
	}
	return true
}

// cacheKey renders the full lookup key for a seeker run: the pinned
// snapshot's generation, correlation sample size (it changes C-seeker
// results), seeker fingerprint, and rewrite predicate.
func (v *view) cacheKey(s Seeker, rw Rewrite) (string, bool) {
	var sb strings.Builder
	sb.WriteString("g")
	sb.WriteString(strconv.FormatUint(v.sn.gen, 10))
	sb.WriteString("|h")
	sb.WriteString(strconv.Itoa(v.SampleH))
	sb.WriteByte('|')
	if !seekerFingerprint(&sb, s) {
		return "", false
	}
	sb.WriteString("|rw")
	sb.WriteString(strconv.Itoa(rw.mode))
	sb.WriteByte('|')
	for _, id := range rw.ids {
		sb.WriteString(strconv.FormatInt(int64(id), 10))
		sb.WriteByte(',')
	}
	return sb.String(), true
}
