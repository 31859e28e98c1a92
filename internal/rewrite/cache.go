package rewrite

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// nfEntry is one cached normalization: the normal form of a distinct
// canonical term and its pass depth, the most equality-propagation
// rounds any conjunction took on the way to it. The depth is memoized
// when the entry is published, as the maximum of the rounds taken at
// this node and the depths of the entries its computation read (its
// key's arguments, a rebuilt node, a rule's rewritten term, a round's
// substituted conjuncts). Every such entry is published before the
// entry that read it, and max is idempotent, so neither DAG sharing
// nor a first-wins race can change it. Entries are immutable once
// published.
type nfEntry struct {
	out    logic.Term
	passes uint32
}

// Cache is a persistent normal-form table keyed by canonical term
// pointer. It is safe for concurrent use: readers take an RLock,
// writers publish complete immutable entries, and racing computations
// of the same term resolve first-wins (the entries are deterministic,
// so either is correct). A Cache is only shareable between Simplifiers
// running the default configuration — see Simplifier.Simplify.
type Cache struct {
	mu     sync.RWMutex
	m      map[logic.Term]*nfEntry
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache creates an empty normal-form cache.
func NewCache() *Cache {
	return &Cache{m: make(map[logic.Term]*nfEntry)}
}

// get returns the cached entry for t, counting a hit or miss.
func (c *Cache) get(t logic.Term) (*nfEntry, bool) {
	c.mu.RLock()
	e, ok := c.m[t]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// put publishes the entry for t and returns the published entry. First
// writer wins; a concurrent duplicate (same term raced by two
// goroutines) is discarded.
func (c *Cache) put(t logic.Term, e *nfEntry) *nfEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if won, dup := c.m[t]; dup {
		return won
	}
	c.m[t] = e
	return e
}

// Lookup returns the normal form of the canonical term t and the
// Passes Simplify reports for it, if the cache holds t's entry. It is
// not counted as a hit or miss: a caller peeks before running a
// Simplify, which counts its own lookup of t.
func (c *Cache) Lookup(t logic.Term) (out logic.Term, passes int, ok bool) {
	c.mu.RLock()
	e, ok := c.m[t]
	c.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	return e.out, int(e.passes) + 1, true
}

// Hits returns the number of cache lookups answered from the table.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of cache lookups that required a fresh
// normalization.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Len returns the number of cached normal forms.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
