// Package a is the lockguard golden package: an engine-shaped struct
// with `// guarded by mu` fields, a sync.Once slot, and the
// gen-bump/sweep pairing rule.
package a

import "sync"

type cache struct{ n int }

func (c *cache) sweepBelow(gen uint64) { c.n = 0 }

type engine struct {
	mu    sync.RWMutex
	store map[string]int // guarded by mu
	gen   uint64         // guarded by mu
	cache *cache         // guarded by mu
}

// newEngine builds a fresh engine; initialization precedes sharing, so
// unlocked field writes here are exempt.
func newEngine() *engine {
	e := &engine{store: make(map[string]int), cache: &cache{}}
	e.store["seed"] = 1
	return e
}

// Good reads under the read lock.
func (e *engine) Good() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.store)
}

// Bad reads without any lock.
func (e *engine) Bad() int {
	return len(e.store) // want "read store without holding mu"
}

// BadWrite writes under only the read lock.
func (e *engine) BadWrite() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.store = nil // want "write to store without holding mu"
}

// size is a helper invoked with the lock already held.
//
// lockguard: caller holds mu
func (e *engine) size() int { return len(e.store) }

// GenGood bumps the generation and sweeps the cache in the same critical
// section.
func (e *engine) GenGood() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++
	e.cache.sweepBelow(e.gen)
}

// GenBad bumps the generation without sweeping the cache.
func (e *engine) GenBad() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++ // want "store-generation bump without a snapshot publish or cache sweep"
}

// GenLazy carries the explicit lazy-invalidation waiver.
func (e *engine) GenLazy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gen++ // lint:gen-lazy golden lazy-invalidation case
}

// Waived demonstrates the generic lint:ignore escape hatch.
func (e *engine) Waived() int {
	return len(e.store) // lint:ignore lockguard golden waiver case
}

// slot mirrors the sharded-store lazy slot: the error is written inside
// the Once and read after it returns.
type slot struct {
	once sync.Once
	err  error // guarded by once
}

// init materializes the slot exactly once.
func (s *slot) init() {
	s.once.Do(func() {
		s.err = nil
	})
}

// Peek reads the slot error without going through the Once.
func (s *slot) Peek() error {
	return s.err // want "read err without holding once"
}

// snapPtr mirrors atomic.Pointer[snapshot] shape-wise: the lockguard
// publish rule keys on a Store call through a field named snap.
type snapPtr struct{ v any }

func (p *snapPtr) Store(v any) { p.v = v }

// mvcc is the MVCC-engine golden shape: gen bumps pair with publish
// (which itself pairs snap.Store with retire).
type mvcc struct {
	mu   sync.Mutex
	gen  uint64 // guarded by mu
	snap snapPtr
}

func (m *mvcc) retire(v any) {}

// publish is the good pairing: Store plus retire in one function.
func (m *mvcc) publish(v any) {
	m.snap.Store(v)
	m.retire(v)
}

// GenPublish bumps the generation and publishes — the MVCC pairing.
func (m *mvcc) GenPublish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	m.publish(nil)
}

// PublishBad stores a snapshot without retiring the window.
func (m *mvcc) PublishBad(v any) {
	m.snap.Store(v) // want "snapshot publish without retiring into the retention window"
}

// PublishWaived carries the lazy waiver on the raw store.
func (m *mvcc) PublishWaived(v any) {
	m.snap.Store(v) // lint:gen-lazy golden raw-publish case
}

var _ = newEngine
var _ = (*engine).size
var _ = (*slot).init
var _ = (*mvcc).GenPublish
var _ = (*mvcc).PublishBad
var _ = (*mvcc).PublishWaived
