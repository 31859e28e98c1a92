package engine_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

func TestReportCacheLRU(t *testing.T) {
	rc := engine.NewReportCache()
	rc.SetMaxBytes(200)
	rc.Put("a", 1, 100)
	rc.Put("b", 2, 100)
	if _, ok := rc.Get("a"); !ok { // a is now most recent
		t.Fatal("a missing before overflow")
	}
	rc.Put("c", 3, 100) // over the byte cap: must evict b
	if _, ok := rc.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if v, ok := rc.Get("a"); !ok || v != 1 {
		t.Fatal("recently used entry a was evicted")
	}
	if v, ok := rc.Get("c"); !ok || v != 3 {
		t.Fatal("new entry c missing")
	}
	if rc.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", rc.Evictions())
	}
	if rc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rc.Len())
	}
	if rc.Bytes() != 200 {
		t.Fatalf("Bytes = %d, want 200", rc.Bytes())
	}
	// Shrinking the cap sheds immediately: c was read last, so it
	// survives and a goes.
	rc.SetMaxBytes(100)
	if rc.Len() != 1 || rc.Bytes() != 100 {
		t.Fatalf("after shrink: Len = %d, Bytes = %d; want 1, 100", rc.Len(), rc.Bytes())
	}
	// An entry larger than the whole cap is dropped, not stored: the
	// cap is a heap bound.
	rc.Put("big", 9, 500)
	if _, ok := rc.Get("big"); ok {
		t.Fatal("oversized entry survived")
	}
	if rc.Bytes() != 0 || rc.Len() != 0 {
		t.Fatalf("after oversized put: Len = %d, Bytes = %d; want 0, 0", rc.Len(), rc.Bytes())
	}
	hits, misses := rc.Counters()
	if hits != 3 || misses != 2 {
		t.Fatalf("counters = %d hits, %d misses; want 3, 2", hits, misses)
	}
}

func TestReportCacheDisplacementAccounting(t *testing.T) {
	rc := engine.NewReportCache()
	rc.Put("k", 1, 50)
	rc.Put("k", 2, 80) // displaces: accounted size follows the new value
	if rc.Bytes() != 80 {
		t.Fatalf("Bytes after displacement = %d, want 80", rc.Bytes())
	}
	if rc.Len() != 1 {
		t.Fatalf("Len after displacement = %d, want 1", rc.Len())
	}
}

func TestSessionSimplifyCacheBounded(t *testing.T) {
	s := newSession(t)
	s.SetCacheLimits(engine.CacheLimits{Simplify: 1})
	x := logic.NewIntVar("x", 0, 7)
	seedA := logic.And(logic.Eq(x, logic.NewInt(1)), logic.NewBoolVar("p"))
	seedB := logic.And(logic.Eq(x, logic.NewInt(2)), logic.NewBoolVar("q"))
	outA := s.Simplify(seedA)
	outB := s.Simplify(seedB) // evicts seedA's outcome
	st := s.Stats()
	if st.SimplifyEntries != 1 {
		t.Fatalf("SimplifyEntries = %d, want 1", st.SimplifyEntries)
	}
	if st.SimplifyEvictions != 1 {
		t.Fatalf("SimplifyEvictions = %d, want 1", st.SimplifyEvictions)
	}
	// The evicted seed recomputes to an equal (deterministic) outcome.
	outA2 := s.Simplify(seedA)
	if outA2.Simplified != outA.Simplified {
		t.Fatal("recomputed outcome differs from the evicted one")
	}
	if outB.Simplified == outA.Simplified {
		t.Fatal("distinct seeds simplified identically (test is vacuous)")
	}
}

func TestSessionLiftSampleWindow(t *testing.T) {
	s := newSession(t)
	s.SetCacheLimits(engine.CacheLimits{LiftSamples: 10})
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s.AddLiftQueries(ds)
	st := s.Stats()
	if st.LiftQueries != 100 {
		t.Fatalf("LiftQueries = %d, want 100 (total survives windowing)", st.LiftQueries)
	}
	if got := len(s.LiftSamples()); got != 10 {
		t.Fatalf("retained samples = %d, want 10", got)
	}
	// Percentiles are over the window (91..100ms): p50 nearest-rank at
	// index 4 → 95ms.
	if st.LiftP50 != 95*time.Millisecond {
		t.Fatalf("LiftP50 = %v, want 95ms (window, not all-time)", st.LiftP50)
	}
}

func TestSessionPoolLifecycle(t *testing.T) {
	p := engine.NewSessionPool(2)
	if _, ok := p.Checkout("a"); ok {
		t.Fatal("empty pool claimed a hit")
	}
	// Miss opened a lease; close it by checking in the fresh build.
	sa := newSession(t)
	p.Checkin(&engine.PoolItem{Key: "a", Session: sa, Value: "va"})
	g := p.Gauges()
	if g.Idle != 1 || g.Leased != 0 || g.Hits != 0 || g.Misses != 1 {
		t.Fatalf("gauges after first checkin = %+v", g)
	}

	item, ok := p.Checkout("a")
	if !ok || item.Session != sa || item.Value != "va" {
		t.Fatalf("checkout = %+v, %v; want the pooled item", item, ok)
	}
	if g := p.Gauges(); g.Leased != 1 || g.Idle != 0 {
		t.Fatalf("gauges mid-lease = %+v", g)
	}
	// Exclusive: a concurrent request for the same key misses.
	if _, ok := p.Checkout("a"); ok {
		t.Fatal("leased item handed out twice")
	}
	p.Drop(nil) // the concurrent request failed its build
	p.Checkin(item)
	if g := p.Gauges(); g.Leased != 0 || g.Idle != 1 {
		t.Fatalf("gauges after checkin = %+v", g)
	}
}

func TestSessionPoolEviction(t *testing.T) {
	p := engine.NewSessionPool(2)
	sessions := map[string]*engine.Session{}
	for _, k := range []string{"a", "b", "c"} {
		p.Checkout(k)
		s := newSession(t)
		s.AddLiftQueries([]time.Duration{time.Millisecond})
		sessions[k] = s
		p.Checkin(&engine.PoolItem{Key: k, Session: s})
	}
	g := p.Gauges()
	if g.Idle != 2 || g.Evictions != 1 {
		t.Fatalf("gauges = %+v; want Idle 2, Evictions 1", g)
	}
	// The evicted session ("a", least recent) retired its stats: the
	// snapshot still counts all three sessions' lift queries.
	if st := p.StatsSnapshot(); st.LiftQueries != 3 {
		t.Fatalf("snapshot LiftQueries = %d, want 3 (eviction must not lose work)", st.LiftQueries)
	}
	if _, ok := p.Checkout("a"); ok {
		t.Fatal("evicted key still pooled")
	}
	p.Drop(nil)

	// Same-key displacement keeps the newer item and retires the old.
	item, ok := p.Checkout("b")
	if !ok {
		t.Fatal("key b missing")
	}
	p.Checkout("b") // concurrent miss builds its own
	newer := newSession(t)
	p.Checkin(&engine.PoolItem{Key: "b", Session: newer})
	p.Checkin(item) // displaces newer? no: item displaces the pooled newer
	got, ok := p.Checkout("b")
	if !ok || got.Session != item.Session {
		t.Fatal("last checkin did not win the slot")
	}
	p.Checkin(got)
	if g := p.Gauges(); g.Leased != 0 {
		t.Fatalf("Leased = %d at quiescence, want 0", g.Leased)
	}
}

func TestStatsAdd(t *testing.T) {
	a := engine.Stats{Encodes: 1, Conflicts: 10, CoreLearnts: 5, LiftQueries: 3,
		LiftP50: time.Millisecond, ReportCacheHits: 2}
	b := engine.Stats{Encodes: 2, Conflicts: 5, CoreLearnts: 3, LiftQueries: 4,
		LiftP50: time.Second, ReportCacheHits: 1}
	a.LBDHist[0], b.LBDHist[0] = 7, 8
	a.Add(b)
	if a.Encodes != 3 || a.Conflicts != 15 || a.LiftQueries != 7 || a.ReportCacheHits != 3 {
		t.Fatalf("summed counters wrong: %+v", a)
	}
	if a.CoreLearnts != 5 {
		t.Fatalf("CoreLearnts = %d, want max 5", a.CoreLearnts)
	}
	if a.LBDHist[0] != 15 {
		t.Fatalf("LBDHist[0] = %d, want 15", a.LBDHist[0])
	}
	if a.LiftP50 != 0 || a.LiftP95 != 0 {
		t.Fatal("percentiles must zero on Add (recomputed by aggregators)")
	}
}

// fillLeaves gives every numeric leaf of v (array elements included) a
// distinct value: scale times its position, counting from 1.
func fillLeaves(t *testing.T, v reflect.Value, scale int64) {
	t.Helper()
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Int, reflect.Int64:
			n++
			v.SetInt(scale * n)
		case reflect.Uint64:
			n++
			v.SetUint(uint64(scale * n))
		default:
			t.Fatalf("fillLeaves: unhandled field kind %v", v.Kind())
		}
	}
	fill(v)
}

// TestStatsAddFoldsEveryField adds a fully populated Stats whose every
// leaf exceeds the receiver's, so both a sum and a max change each
// field. A field added to Stats without a line in Add keeps the
// receiver's value and fails here instead of silently dropping out of
// the aggregated /metrics snapshot. The lift percentiles are the
// exception: Add zeroes them by design.
func TestStatsAddFoldsEveryField(t *testing.T) {
	var a, b engine.Stats
	fillLeaves(t, reflect.ValueOf(&a).Elem(), 1)
	fillLeaves(t, reflect.ValueOf(&b).Elem(), 2)
	before := a
	a.Add(b)
	got, old := reflect.ValueOf(a), reflect.ValueOf(before)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		g, o := got.Field(i).Interface(), old.Field(i).Interface()
		switch name {
		case "LiftP50", "LiftP95":
			if !got.Field(i).IsZero() {
				t.Errorf("Add: %s = %v, want 0", name, g)
			}
			continue
		}
		if got.Field(i).Kind() == reflect.Array {
			for j := 0; j < got.Field(i).Len(); j++ {
				if got.Field(i).Index(j).Interface() == old.Field(i).Index(j).Interface() {
					t.Errorf("Add: %s[%d] not folded", name, j)
				}
			}
			continue
		}
		if g == o {
			t.Errorf("Add: %s = %v unchanged, want the other Stats folded in", name, g)
		}
	}
}

func TestNewSessionFromInheritsLimits(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := engine.NewSession(sc.Net, sc.Requirements(), res.Deployment, synth.DefaultOptions())
	s.SetCacheLimits(engine.CacheLimits{ReportBytes: 300, Simplify: 3, LiftSamples: 5})
	succ := engine.NewSessionFrom(s, sc.Requirements(), res.Deployment)
	// Lift window limit traveled.
	var ds []time.Duration
	for i := 1; i <= 20; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	succ.AddLiftQueries(ds)
	if got := len(succ.LiftSamples()); got != 5 {
		t.Fatalf("successor retained samples = %d, want 5", got)
	}
	// The shared report cache is the same object, still bounded.
	rc := succ.ReportCache()
	if rc != s.ReportCache() {
		t.Fatal("successor does not share the report cache")
	}
	for i := 0; i < 5; i++ {
		rc.Put(fmt.Sprintf("k%d", i), i, 100)
	}
	if rc.Len() != 3 {
		t.Fatalf("shared report cache Len = %d, want 3 (byte cap inherited)", rc.Len())
	}
}
