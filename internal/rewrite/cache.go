package rewrite

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
)

// numRules is the size of the per-entry rule-fire array; index a rule
// with ruleIndex.
const numRules = 15

// ruleIndex maps each rule to its position in AllRules (and in every
// fireCounts array).
var ruleIndex = func() map[RuleName]int {
	m := make(map[RuleName]int, len(AllRules))
	for i, r := range AllRules {
		m[r] = i
	}
	if len(m) != numRules {
		panic("rewrite: numRules out of sync with AllRules")
	}
	return m
}()

// fireCounts is a compact per-rule fire counter.
type fireCounts [numRules]uint32

// nfEntry is one cached normalization: the normal form of a distinct
// canonical term, plus the diagnostics of computing it. An entry's
// fires count only the rules fired at this term's own node; the work
// done inside subterms (and inside terms derived while rewriting this
// node) is reachable through the entry's dependencies — its key's
// arguments, which every computation normalizes first and which the key
// itself lists, and deps, the terms derived on the way (a rebuilt node,
// a rule's rewritten term, a propagation round's substituted
// conjuncts) — so a deterministic walk of the dependency closure
// (Cache.Recount) reconstructs a whole seed's rule statistics
// regardless of how warm the cache was or which goroutine filled it.
// passes needs no walk: it is memoized when the entry is published, as
// the maximum of the entry's own rounds and its dependencies' passes —
// every dependency is published before the entry that records it, and
// max is idempotent, so neither DAG sharing nor a first-wins race can
// change it. Entries are immutable once published.
type nfEntry struct {
	out    logic.Term
	fires  fireCounts
	rounds uint32 // equality-propagation rounds taken at this node
	passes uint32 // max rounds over the dependency closure
	deps   []logic.Term
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
// goroutines) is discarded, keeping the dependency graph stable for
// readers that already saw the first.
func (c *Cache) put(t logic.Term, e *nfEntry) *nfEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if won, dup := c.m[t]; dup {
		return won
	}
	c.m[t] = e
	return e
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

// Recount walks the dependency closure of t's entry and returns the
// per-rule fire counts summed over it (rules that never fired are
// absent) and 1 + the maximum propagation-round count over it — the
// Passes that Simplify reports from the memoized entry. Each distinct
// term is counted once, which is what makes the counts deterministic:
// they depend only on the set of distinct subterms normalized for t,
// not on cache warmth or scheduling. The walk visits the whole closure
// with a fresh visited set, so it is an on-demand diagnostic (the rule
// tables); the report path never calls it.
func (c *Cache) Recount(t logic.Term) (fires map[RuleName]int, passes int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum fireCounts
	var maxRounds uint32
	visited := make(map[logic.Term]struct{})
	stack := []logic.Term{logic.Intern(t)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := visited[u]; seen {
			continue
		}
		visited[u] = struct{}{}
		e, ok := c.m[u]
		if !ok {
			continue
		}
		for i := range e.fires {
			sum[i] += e.fires[i]
		}
		if e.rounds > maxRounds {
			maxRounds = e.rounds
		}
		for _, arg := range u.(*logic.Apply).Args {
			if _, ok := arg.(*logic.Apply); ok {
				stack = append(stack, arg)
			}
		}
		stack = append(stack, e.deps...)
	}
	fires = make(map[RuleName]int)
	for i, n := range sum {
		if n > 0 {
			fires[AllRules[i]] = int(n)
		}
	}
	return fires, int(maxRounds) + 1
}
