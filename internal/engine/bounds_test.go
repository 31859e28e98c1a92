package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

func TestSessionLiftSampleWindow(t *testing.T) {
	s := newSession(t)
	const n = engine.DefaultLiftSampleCap + 100
	var ds []time.Duration
	for i := 1; i <= n; i++ {
		ds = append(ds, time.Duration(i)*time.Microsecond)
	}
	s.AddLiftQueries(ds)
	st := s.Stats()
	if st.LiftQueries != n {
		t.Fatalf("LiftQueries = %d, want %d (total survives windowing)", st.LiftQueries, n)
	}
	if got := len(s.LiftSamples()); got != engine.DefaultLiftSampleCap {
		t.Fatalf("retained samples = %d, want %d", got, engine.DefaultLiftSampleCap)
	}
	// Percentiles are over the window (101..n µs): p50 nearest-rank at
	// index (cap-1)*50/100.
	if want := time.Duration(101+(engine.DefaultLiftSampleCap-1)*50/100) * time.Microsecond; st.LiftP50 != want {
		t.Fatalf("LiftP50 = %v, want %v (window, not all-time)", st.LiftP50, want)
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

// TestSessionPoolMergedLiftPercentiles pins the pool snapshot's lift
// percentiles to nearest-rank over the union of an idle and a leased
// session's sample windows, which neither window's own percentiles
// give.
func TestSessionPoolMergedLiftPercentiles(t *testing.T) {
	ms := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Millisecond
		}
		return out
	}
	p := engine.NewSessionPool(2)
	for k, samples := range map[string][]time.Duration{"idle": ms(3, 1, 2), "leased": ms(10, 7, 9, 8)} {
		p.Checkout(k)
		s := newSession(t)
		s.AddLiftQueries(samples)
		p.Checkin(&engine.PoolItem{Key: k, Session: s})
	}
	item, ok := p.Checkout("leased")
	if !ok {
		t.Fatal("key leased missing")
	}
	defer p.Checkin(item)

	// The union sorted is 1 2 3 7 8 9 10 ms: nearest rank (n-1)*p/100
	// picks index 3 for p50 and index 5 for p95.
	st := p.StatsSnapshot()
	if st.LiftQueries != 7 || st.LiftP50 != 7*time.Millisecond || st.LiftP95 != 9*time.Millisecond {
		t.Fatalf("snapshot lift queries/p50/p95 = %d/%v/%v, want 7/7ms/9ms", st.LiftQueries, st.LiftP50, st.LiftP95)
	}
}

// TestSessionPoolSnapshotCountsLeased pins that a snapshot taken while
// a request holds a warm session still counts that session: no counter
// falls from before the lease to during it, across a Retarget to a
// successor session inside the lease, or to after the checkin.
func TestSessionPoolSnapshotCountsLeased(t *testing.T) {
	p := engine.NewSessionPool(2)
	p.Checkout("a")
	s := newSession(t)
	base, err := s.PrepareScoped(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Simplify(base.Seed())
	s.AddLiftQueries([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	p.Checkin(&engine.PoolItem{Key: "a", Session: s})

	before := p.StatsSnapshot()
	if before.BaseEncodes == 0 || before.NormCacheEntries == 0 || before.LiftQueries == 0 {
		t.Fatalf("warm session has no history to lose: %+v", before)
	}
	item, ok := p.Checkout("a")
	if !ok {
		t.Fatal("warm item not pooled")
	}
	leased := p.StatsSnapshot()
	noCounterFalls(t, "checkout", before, leased)
	p.Retarget(item, engine.NewSessionFrom(s, nil, nil))
	retargeted := p.StatsSnapshot()
	noCounterFalls(t, "retarget", leased, retargeted)
	p.Checkin(item)
	noCounterFalls(t, "checkin", retargeted, p.StatsSnapshot())
}

// noCounterFalls requires every numeric leaf of after (array elements
// included) to be at least its value in before. The lift percentiles
// are not counters but readings of the live sample windows, which a
// Retarget drops with the predecessor, so they are skipped.
func noCounterFalls(t *testing.T, step string, before, after engine.Stats) {
	t.Helper()
	var walk func(name string, b, a reflect.Value)
	walk = func(name string, b, a reflect.Value) {
		switch b.Kind() {
		case reflect.Struct:
			for i := 0; i < b.NumField(); i++ {
				if f := b.Type().Field(i).Name; f != "LiftP50" && f != "LiftP95" {
					walk(f, b.Field(i), a.Field(i))
				}
			}
		case reflect.Array:
			for i := 0; i < b.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", name, i), b.Index(i), a.Index(i))
			}
		case reflect.Int, reflect.Int64:
			if a.Int() < b.Int() {
				t.Errorf("%s: %s fell from %d to %d", step, name, b.Int(), a.Int())
			}
		case reflect.Uint64:
			if a.Uint() < b.Uint() {
				t.Errorf("%s: %s fell from %d to %d", step, name, b.Uint(), a.Uint())
			}
		default:
			t.Fatalf("noCounterFalls: unhandled field kind %v", b.Kind())
		}
	}
	walk("Stats", reflect.ValueOf(before), reflect.ValueOf(after))
}

func TestStatsAdd(t *testing.T) {
	a := engine.Stats{Encodes: 1, Conflicts: 10, Reductions: 1, NormCacheEntries: 5, LiftQueries: 3,
		LiftP50: time.Millisecond, ReportCacheHits: 2}
	b := engine.Stats{Encodes: 2, Conflicts: 5, Reductions: 2, NormCacheEntries: 3, LiftQueries: 4,
		LiftP50: time.Second, ReportCacheHits: 1}
	a.LBDHist[0], b.LBDHist[0] = 7, 8
	a.Add(b)
	if a.Encodes != 3 || a.Conflicts != 15 || a.Reductions != 3 || a.LiftQueries != 7 || a.ReportCacheHits != 3 {
		t.Fatalf("summed counters wrong: %+v", a)
	}
	if a.NormCacheEntries != 5 {
		t.Fatalf("NormCacheEntries = %d, want max 5", a.NormCacheEntries)
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
	s.ReportCache().SetMaxCost(300)
	succ := engine.NewSessionFrom(s, sc.Requirements(), res.Deployment)
	// The shared report cache is the same object, still bounded.
	rc := succ.ReportCache()
	if rc != s.ReportCache() {
		t.Fatal("successor does not share the report cache")
	}
	for i := 0; i < 5; i++ {
		rc.Put(fmt.Sprintf("k%d", i), fmt.Sprint(i), 100)
	}
	if got := rc.Stats().Len; got != 3 {
		t.Fatalf("shared report cache Len = %d, want 3 (byte cap inherited)", got)
	}
}
