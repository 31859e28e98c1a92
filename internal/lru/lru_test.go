package lru

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// op is one call in a TestCache script: put (cost), get or take
// (expecting val, ok), or setcap (cost is the new cap).
type op struct {
	do   string
	key  string
	val  int
	cost int64
	ok   bool
}

func put(k string, v int, cost int64) op { return op{do: "put", key: k, val: v, cost: cost} }
func get(k string, v int, ok bool) op    { return op{do: "get", key: k, val: v, ok: ok} }
func take(k string, v int, ok bool) op   { return op{do: "take", key: k, val: v, ok: ok} }
func setcap(n int64) op                  { return op{do: "setcap", cost: n} }

func TestCache(t *testing.T) {
	cases := []struct {
		name string
		cap  int64
		ops  []op
		// values is the stored values, most recently used first; hook
		// is every "key=val" the eviction hook saw, in order.
		values []int
		hook   []string
		stats  Stats
	}{
		{
			name:   "entry cap evicts the least recently used",
			cap:    2,
			ops:    []op{put("a", 1, 1), put("b", 2, 1), get("a", 1, true), put("c", 3, 1), get("b", 0, false)},
			values: []int{3, 1},
			hook:   []string{"b=2"},
			stats:  Stats{Len: 2, Cost: 2, Hits: 1, Misses: 1, Evictions: 1},
		},
		{
			name: "cost cap evicts until the total fits",
			cap:  10,
			ops: []op{put("a", 1, 4), put("b", 2, 4), put("c", 3, 4), // 12 > 10: a goes
				get("b", 2, true), put("d", 4, 6)}, // 14 > 10: c, now least recent, goes
			values: []int{4, 2},
			hook:   []string{"a=1", "c=3"},
			stats:  Stats{Len: 2, Cost: 10, Hits: 1, Evictions: 2},
		},
		{
			// A byte-capped report cache: recency, shrinking the cap, and
			// an entry larger than the whole cap, which is dropped without
			// flushing the entries that fit.
			name: "report cache lru",
			cap:  200,
			ops: []op{put("a", 1, 100), put("b", 2, 100), get("a", 1, true),
				put("c", 3, 100), get("b", 0, false), get("a", 1, true), get("c", 3, true),
				setcap(100), // c was read last: a goes
				put("big", 9, 500), get("big", 0, false)},
			values: []int{3},
			hook:   []string{"b=2", "a=1", "big=9"},
			stats:  Stats{Len: 1, Cost: 100, Hits: 3, Misses: 2, Evictions: 3},
		},
		{
			name:   "report cache displacement accounting",
			ops:    []op{put("k", 1, 50), put("k", 2, 80), get("k", 2, true)},
			values: []int{2},
			hook:   []string{"k=1"},
			stats:  Stats{Len: 1, Cost: 80, Hits: 1},
		},
		{
			name:  "an oversized put still displaces its key",
			cap:   100,
			ops:   []op{put("k", 1, 50), put("k", 2, 150), get("k", 0, false)},
			hook:  []string{"k=1", "k=2"},
			stats: Stats{Misses: 1, Evictions: 1},
		},
		{
			name: "take removes exclusively and is not an eviction",
			cap:  2,
			ops: []op{put("a", 1, 1), put("b", 2, 1), take("a", 1, true), take("a", 0, false),
				put("c", 3, 1)},
			values: []int{3, 2},
			stats:  Stats{Len: 2, Cost: 2, Hits: 1, Misses: 1},
		},
		{
			name:   "shrinking the cap evicts least recent first",
			cap:    3,
			ops:    []op{put("a", 1, 1), put("b", 2, 1), put("c", 3, 1), get("a", 1, true), setcap(1)},
			values: []int{1},
			hook:   []string{"b=2", "c=3"},
			stats:  Stats{Len: 1, Cost: 1, Hits: 1, Evictions: 2},
		},
		{
			name:   "cap 0 is unbounded",
			cap:    1,
			ops:    []op{put("a", 1, 1), setcap(0), put("b", 2, 1), put("c", 3, 1<<40)},
			values: []int{3, 2, 1},
			stats:  Stats{Len: 3, Cost: 2 + 1<<40},
		},
		{
			name:   "a negative cost counts as 0",
			cap:    1,
			ops:    []op{put("a", 1, -5), put("b", 2, 1)},
			values: []int{2, 1},
			stats:  Stats{Len: 2, Cost: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var hook []string
			c := New[string, int](tc.cap, func(k string, v int) { hook = append(hook, fmt.Sprintf("%s=%d", k, v)) })
			for i, o := range tc.ops {
				var v int
				var ok bool
				switch o.do {
				case "put":
					c.Put(o.key, o.val, o.cost)
					continue
				case "setcap":
					c.SetMaxCost(o.cost)
					continue
				case "get":
					v, ok = c.Get(o.key)
				case "take":
					v, ok = c.Take(o.key)
				}
				if v != o.val || ok != o.ok {
					t.Fatalf("op %d: %s(%q) = %d, %v; want %d, %v", i, o.do, o.key, v, ok, o.val, o.ok)
				}
			}
			if got := c.Values(); len(got) != len(tc.values) || (len(got) > 0 && !reflect.DeepEqual(got, tc.values)) {
				t.Errorf("values = %v, want %v", got, tc.values)
			}
			if !reflect.DeepEqual(hook, tc.hook) {
				t.Errorf("hook saw %v, want %v", hook, tc.hook)
			}
			if got := c.Stats(); got != tc.stats {
				t.Errorf("stats = %+v, want %+v", got, tc.stats)
			}
		})
	}
}

// TestCacheConcurrent runs Get, Put and Take from several goroutines
// over a small key space (run it under -race), then checks that every
// value put is accounted for exactly once: still stored, taken, or
// handed to the eviction hook.
func TestCacheConcurrent(t *testing.T) {
	const workers, iters, keys = 8, 2000, 16
	var evicted atomic.Int64
	c := New[int, int](keys/2, func(int, int) { evicted.Add(1) })
	var puts, taken, lookups atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*7 + i) % keys
				switch i % 3 {
				case 0:
					c.Put(k, i, 1)
					puts.Add(1)
				case 1:
					c.Get(k)
					lookups.Add(1)
				case 2:
					if _, ok := c.Take(k); ok {
						taken.Add(1)
					}
					lookups.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Len > keys/2 || int64(st.Len) != st.Cost || st.Len != len(c.Values()) {
		t.Fatalf("stats %+v with %d values: over the cap or inconsistent", st, len(c.Values()))
	}
	if got := int64(st.Hits + st.Misses); got != lookups.Load() {
		t.Errorf("hits+misses = %d, want %d lookups", got, lookups.Load())
	}
	if got := int64(st.Len) + taken.Load() + evicted.Load(); got != puts.Load() {
		t.Errorf("stored %d + taken %d + let go %d = %d, want %d puts", st.Len, taken.Load(), evicted.Load(), got, puts.Load())
	}
}
