// Package lru provides the stack's one least-recently-used cache. Every
// bounded cache of the explanation stack (rendered report sections,
// warm sessions, served responses) is a Cache: they differ only in
// their keys, their values, the cost each entry declares and the cap.
package lru

import "sync"

// Cache maps keys to values in recency order, bounded by the total cost
// its entries declare: cost 1 per entry makes the cap an entry count, a
// byte estimate makes it a heap bound. A cap of 0 or less means
// unbounded. Past the cap the least recently used entries are evicted,
// and an entry costlier than the whole cap is not stored at all: the
// cap is a bound, not a target. A Cache is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[K, V]
	// root is the sentinel of the recency ring: root.next is the most
	// recently used entry, root.prev the least.
	root      entry[K, V]
	maxCost   int64
	cost      int64
	hits      int
	misses    int
	evictions int
	onEvict   func(K, V)
}

type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
	cost       int64
}

// Stats is a point-in-time reading of a cache.
type Stats struct {
	// Len is the number of entries and Cost their total declared cost.
	Len  int
	Cost int64
	// Hits and Misses count Get and Take lookups. Evictions counts the
	// entries the cap let go of, each entry costlier than the whole cap
	// included; an entry displaced by a Put under its own key is not
	// an eviction.
	Hits      int
	Misses    int
	Evictions int
}

// New returns an empty cache bounded by maxCost. onEvict, when not nil,
// is called with every entry the cache lets go of other than through
// Take: those the cap evicts and those a Put under the same key
// displaces. It runs on the goroutine whose Put or SetMaxCost let the
// entry go, after the cache's lock is released, in the order the
// entries left.
func New[K comparable, V any](maxCost int64, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{m: make(map[K]*entry[K, V]), maxCost: maxCost, onEvict: onEvict}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently used,
// counting a hit or a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookup(k)
	if e == nil {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Take removes the entry stored under k and returns its value, counting
// a hit or a miss: the caller holds the value exclusively until it puts
// it back.
func (c *Cache[K, V]) Take(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookup(k)
	if e == nil {
		var zero V
		return zero, false
	}
	c.remove(e)
	return e.val, true
}

// Put stores v under k as the most recently used entry at the declared
// cost (a negative cost counts as 0), displacing any entry already under
// k, then evicts least recently used entries until the total fits the
// cap.
func (c *Cache[K, V]) Put(k K, v V, cost int64) {
	e := &entry[K, V]{key: k, val: v, cost: max(cost, 0)}
	c.mu.Lock()
	var gone []*entry[K, V]
	if old, ok := c.m[k]; ok {
		c.remove(old)
		gone = c.letGo(gone, old)
	}
	if c.maxCost > 0 && e.cost > c.maxCost {
		c.evictions++
		gone = c.letGo(gone, e)
	} else {
		c.m[k] = e
		c.pushFront(e)
		c.cost += e.cost
		gone = c.shed(gone)
	}
	c.mu.Unlock()
	c.release(gone)
}

// SetMaxCost rebounds the cache, evicting at once while it is over the
// new cap.
func (c *Cache[K, V]) SetMaxCost(n int64) {
	c.mu.Lock()
	c.maxCost = n
	gone := c.shed(nil)
	c.mu.Unlock()
	c.release(gone)
}

// Values returns the stored values, most recently used first, without
// touching their recency.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	vs := make([]V, 0, len(c.m))
	for e := c.root.next; e != &c.root; e = e.next {
		vs = append(vs, e.val)
	}
	return vs
}

// Stats returns the cache's size and counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Len: len(c.m), Cost: c.cost, Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// lookup returns the entry under k, or nil, counting a hit or a miss.
func (c *Cache[K, V]) lookup(k K) *entry[K, V] {
	e := c.m[k]
	if e == nil {
		c.misses++
	} else {
		c.hits++
	}
	return e
}

// shed evicts least recently used entries while the total cost exceeds
// the cap, appending them to gone.
func (c *Cache[K, V]) shed(gone []*entry[K, V]) []*entry[K, V] {
	for c.maxCost > 0 && c.cost > c.maxCost {
		e := c.root.prev
		c.remove(e)
		c.evictions++
		gone = c.letGo(gone, e)
	}
	return gone
}

// letGo records an entry the hook must see; without a hook nothing is
// kept.
func (c *Cache[K, V]) letGo(gone []*entry[K, V], e *entry[K, V]) []*entry[K, V] {
	if c.onEvict == nil {
		return gone
	}
	return append(gone, e)
}

// release runs the hook over the entries a call let go of. Caller no
// longer holds c.mu.
func (c *Cache[K, V]) release(gone []*entry[K, V]) {
	for _, e := range gone {
		c.onEvict(e.key, e.val)
	}
}

func (c *Cache[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.m, e.key)
	c.cost -= e.cost
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}
