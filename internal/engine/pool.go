package engine

import (
	"sync"

	"repro/internal/lru"
)

// PoolItem is one pooled problem: the session holding its warm caches
// plus an opaque caller value (a serving layer stores the explainer
// built over the session). Between Checkout and Checkin the caller
// owns the item exclusively — nothing in it is shared with the pool.
type PoolItem struct {
	// Key identifies the problem the session was built for. Checkin
	// under the same key makes the warm state reusable by the next
	// request for that problem.
	Key     string
	Session *Session
	Value   any
}

// PoolGauges is a point-in-time reading of a SessionPool's occupancy
// and traffic counters.
type PoolGauges struct {
	// Idle and Leased are current occupancy: items parked in the pool
	// versus checked out (or being built) by callers. A quiescent pool
	// has Leased == 0.
	Idle   int
	Leased int
	// Hits and Misses count Checkout calls answered with a warm item
	// versus not; Evictions counts items displaced by the size cap or
	// by a same-key checkin.
	Hits      int
	Misses    int
	Evictions int
}

// SessionPool holds warm problem sessions for reuse across requests,
// LRU-evicting past a size cap. Leases are exclusive: Checkout removes
// the item, so two requests for one problem never share a session
// concurrently (engine.Session is concurrency-safe, but the explainer
// riding in Value serializes per problem anyway — a second concurrent
// request for the same key simply builds its own session and the
// warmer of the two survives checkin). Every Checkout — hit or miss —
// opens a lease the caller must close with exactly one Checkin or
// Drop.
//
// Evicted, displaced and replaced sessions fold their statistics into a
// retired accumulator so StatsSnapshot never loses work to eviction.
type SessionPool struct {
	// mu guards every pool operation, so a snapshot never sees an item
	// both idle and retired, or both leased and retired. The idle
	// cache's hook (evictLocked) runs inside the Checkin that let the
	// item go, under mu.
	mu   sync.Mutex
	idle *lru.Cache[string, *PoolItem]
	// out holds the warm items Checkout handed out whose lease is still
	// open; their sessions count in snapshots like idle ones.
	out       map[*PoolItem]struct{}
	leased    int
	evictions int
	retired   Stats
}

// NewSessionPool creates a pool holding at most limit idle items
// (limit <= 0 means unlimited).
func NewSessionPool(limit int) *SessionPool {
	p := &SessionPool{out: make(map[*PoolItem]struct{})}
	p.idle = lru.New[string, *PoolItem](int64(limit), p.evictLocked)
	return p
}

// Checkout leases the idle item pooled under key. On a miss it returns
// nil, false and the lease is still open: the caller is expected to
// build the item and close the lease with Checkin (pooling the fresh
// build) or Drop (build failed).
func (p *SessionPool) Checkout(key string) (*PoolItem, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leased++
	item, ok := p.idle.Take(key)
	if ok {
		p.out[item] = struct{}{}
	}
	return item, ok
}

// Checkin closes a lease by parking item for reuse under item.Key. An
// idle item already pooled under the key is displaced (the newly
// checked-in item is the one that just ran a query, so it is the warmer
// of the two), and a pool over its cap evicts the least-recently-used
// key; either way the departing item's statistics are retired.
func (p *SessionPool) Checkin(item *PoolItem) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leased--
	delete(p.out, item)
	p.idle.Put(item.Key, item, 1)
}

// Drop closes a lease without pooling anything (the build failed, or
// the item is known stale). item may be nil; a non-nil item's session
// statistics are still retired so its work is not lost from
// snapshots.
func (p *SessionPool) Drop(item *PoolItem) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leased--
	if item != nil {
		delete(p.out, item)
		p.retireLocked(item.Session, false)
	}
}

// Retarget replaces a leased item's session with next, its successor
// (NewSessionFrom, as a what-if re-explanation makes), retiring the
// predecessor's session-local statistics. The counters of the caches
// the two share stay out of the retired sum: next's snapshots carry
// them cumulatively. A no-op when next already is the item's session.
// The swap happens under the pool's lock, where snapshots read a
// leased item's session, so a snapshot sees the predecessor either
// live or retired, never both or neither.
func (p *SessionPool) Retarget(item *PoolItem, next *Session) {
	if item.Session == next {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retireLocked(item.Session, true)
	item.Session = next
}

// evictLocked is the idle cache's hook: an item the size cap or a
// same-key checkin let go of counts as an eviction and retires its
// statistics. Caller holds p.mu.
func (p *SessionPool) evictLocked(_ string, item *PoolItem) {
	p.evictions++
	p.retireLocked(item.Session, false)
}

// retireLocked folds a departing session's statistics into the retired
// accumulator: all of them, or with replaced set only its session-local
// ones (Session.localStats). Its lift-latency sample window is dropped
// (the query count survives; percentiles are recomputed over live
// windows). Caller holds p.mu.
func (p *SessionPool) retireLocked(s *Session, replaced bool) {
	if s == nil {
		return
	}
	if replaced {
		p.retired.Add(s.localStats())
		return
	}
	p.retired.Add(s.Stats())
}

// Gauges returns the pool's current occupancy and traffic counters.
func (p *SessionPool) Gauges() PoolGauges {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.idle.Stats()
	return PoolGauges{Idle: st.Len, Leased: p.leased, Hits: st.Hits, Misses: st.Misses, Evictions: p.evictions}
}

// StatsSnapshot aggregates engine statistics across the pool: retired
// sessions plus every idle one and every warm one a lease holds, so a
// snapshot taken while a request runs on a pooled session still counts
// that session's history. The lift percentiles are recomputed over the
// union of those sessions' sample windows (sorted, so the result is
// independent of pool iteration order). An item being built on a miss
// is not included: the pool meets it at checkin.
func (p *SessionPool) StatsSnapshot() Stats {
	p.mu.Lock()
	var sessions []*Session
	for _, item := range p.idle.Values() {
		sessions = append(sessions, item.Session)
	}
	for item := range p.out {
		sessions = append(sessions, item.Session)
	}
	st := p.retired
	p.mu.Unlock()

	var samples []int64
	for _, s := range sessions {
		if s != nil {
			st.Add(s.Stats())
			samples = append(samples, s.LiftSamples()...)
		}
	}
	st.setLiftPercentiles(samples)
	return st
}
