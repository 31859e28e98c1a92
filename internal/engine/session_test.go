package engine_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

func newSession(t *testing.T) *engine.Session {
	t.Helper()
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewSession(sc.Net, sc.Requirements(), res.Deployment, synth.DefaultOptions())
}

func TestSessionEncodeCaches(t *testing.T) {
	s := newSession(t)
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	enc1, err := s.Encode(ctx, res.Deployment, "k")
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := s.Encode(ctx, res.Deployment, "k")
	if err != nil {
		t.Fatal(err)
	}
	if enc1 != enc2 {
		t.Error("same key returned distinct encodings")
	}
	st := s.Stats()
	if st.BaseEncodes != 1 || st.Encodes != 1 || st.CacheHits != 1 {
		t.Errorf("stats = base %d, encodes %d, hits %d; want 1, 1, 1",
			st.BaseEncodes, st.Encodes, st.CacheHits)
	}

	// A different key encodes again but shares the base.
	if _, err := s.Encode(ctx, res.Deployment, "k2"); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.BaseEncodes != 1 || st.Encodes != 2 {
		t.Errorf("after second key: base %d, encodes %d; want 1, 2", st.BaseEncodes, st.Encodes)
	}
	if st.ReusedCandidates == 0 {
		t.Error("derived encode of the unchanged deployment reused no candidates")
	}
}

func TestSessionSingleFlight(t *testing.T) {
	s := newSession(t)
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Encode(context.Background(), res.Deployment, "shared")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.BaseEncodes != 1 {
		t.Errorf("BaseEncodes = %d under concurrency, want 1", st.BaseEncodes)
	}
	if st.Encodes != 1 {
		t.Errorf("Encodes = %d for one shared key, want 1 (single flight)", st.Encodes)
	}
	if st.CacheHits != n-1 {
		t.Errorf("CacheHits = %d, want %d", st.CacheHits, n-1)
	}
}

func TestSessionScopedEncoding(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Build a per-router symbolization for each sketchable router.
	sketches := map[string]config.Deployment{}
	for name, sym := range sc.Sketch {
		if sym.Concrete() {
			continue
		}
		sk := config.Deployment{}
		for n, c := range res.Deployment {
			sk[n] = c
		}
		sk[name] = sym
		sketches[name] = sk
	}
	if len(sketches) == 0 {
		t.Fatal("scenario1 has no symbolizable routers")
	}

	scopedSess := engine.NewSession(sc.Net, sc.Requirements(), res.Deployment, synth.DefaultOptions())
	if sb := scopedSess.PrepareScoped(ctx); sb == nil {
		t.Fatal("PrepareScoped returned nil for a concrete deployment")
	}
	coldSess := engine.NewSession(sc.Net, sc.Requirements(), res.Deployment, synth.DefaultOptions())
	coldSess.DisableScopedEncoding()

	for name, sk := range sketches {
		scoped, err := scopedSess.Encode(ctx, sk, "r|"+name)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := coldSess.Encode(ctx, sk, "r|"+name)
		if err != nil {
			t.Fatal(err)
		}
		if len(cold.Constraints) != len(scoped.Constraints) {
			t.Fatalf("%s: %d cold vs %d scoped constraints", name, len(cold.Constraints), len(scoped.Constraints))
		}
		for i := range cold.Constraints {
			if cold.Constraints[i] != scoped.Constraints[i] {
				t.Fatalf("%s: constraint %d differs", name, i)
			}
		}
	}

	st := scopedSess.Stats()
	if st.ScopedEncodes != len(sketches) {
		t.Errorf("ScopedEncodes = %d, want %d", st.ScopedEncodes, len(sketches))
	}
	if st.ScopedGroupsCopied == 0 {
		t.Error("scoped encodes copied no constraint groups")
	}
	// PrepareScoped counts as a base-level encode; it runs once.
	if st.BaseEncodes != 2 {
		t.Errorf("BaseEncodes = %d, want 2 (plain base + scoped recording)", st.BaseEncodes)
	}
	if again := scopedSess.PrepareScoped(ctx); again == nil {
		t.Fatal("second PrepareScoped returned nil")
	}
	if st := scopedSess.Stats(); st.BaseEncodes != 2 {
		t.Errorf("repeat PrepareScoped re-encoded: BaseEncodes = %d", st.BaseEncodes)
	}
	if cst := coldSess.Stats(); cst.ScopedEncodes != 0 {
		t.Errorf("disabled session recorded %d scoped encodes", cst.ScopedEncodes)
	}
}

func TestSessionCancelledEncodeNotCached(t *testing.T) {
	s := newSession(t)
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Encode(cancelled, res.Deployment, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Encode err = %v, want context.Canceled", err)
	}
	// The failure must not poison the key: a live context succeeds.
	if _, err := s.Encode(context.Background(), res.Deployment, "k"); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

func TestBudgetApply(t *testing.T) {
	var b engine.Budget
	ctx, cancel := b.Apply(context.Background())
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero budget must not set a deadline")
	}
	cancel()

	when := time.Now().Add(time.Hour)
	b = engine.Budget{Deadline: when}
	ctx, cancel = b.Apply(context.Background())
	defer cancel()
	if d, ok := ctx.Deadline(); !ok || !d.Equal(when) {
		t.Errorf("deadline = %v, %v; want %v", d, ok, when)
	}

	if got := (engine.Budget{}).ModelCap(); got != engine.DefaultMaxModels {
		t.Errorf("default ModelCap = %d, want %d", got, engine.DefaultMaxModels)
	}
	if got := (engine.Budget{MaxModels: 7}).ModelCap(); got != 7 {
		t.Errorf("ModelCap = %d, want 7", got)
	}
}

func TestSessionLiftQueryStats(t *testing.T) {
	s := newSession(t)
	if st := s.Stats(); st.LiftQueries != 0 || st.LiftP50 != 0 || st.LiftP95 != 0 {
		t.Fatalf("zero-query stats not zero: %+v", st)
	}
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s.AddLiftQueries(ds[:50])
	s.AddLiftQueries(ds[50:])
	s.AddLiftQueries(nil) // no-op
	st := s.Stats()
	if st.LiftQueries != 100 {
		t.Errorf("LiftQueries = %d, want 100", st.LiftQueries)
	}
	// Nearest-rank over 1..100ms: p50 at index 49 (50ms), p95 at 94 (95ms).
	if st.LiftP50 != 50*time.Millisecond {
		t.Errorf("LiftP50 = %v, want 50ms", st.LiftP50)
	}
	if st.LiftP95 != 95*time.Millisecond {
		t.Errorf("LiftP95 = %v, want 95ms", st.LiftP95)
	}
}

func TestSessionMergesFullSolverStats(t *testing.T) {
	s := newSession(t)
	s.AddSolverStats(sat.Stats{Solves: 2, Conflicts: 3, Propagations: 5, Decisions: 7, Learnt: 1})
	s.AddSolverStats(sat.Stats{Solves: 1, Conflicts: 1, Propagations: 1, Decisions: 1, Learnt: 1})
	st := s.Stats()
	if st.Solves != 3 || st.Conflicts != 4 || st.Propagations != 6 || st.Decisions != 8 || st.Learnt != 2 {
		t.Errorf("merged stats dropped counts: %+v", st)
	}
}

func TestSessionSharedNormCache(t *testing.T) {
	s := newSession(t)
	x := logic.NewIntVar("x", 0, 7)
	y := logic.NewIntVar("y", 0, 7)
	shared := logic.And(logic.Eq(x, logic.NewInt(3)), logic.Lt(y, logic.NewInt(5)))
	seedA := logic.And(shared, logic.NewBoolVar("p"))
	seedB := logic.And(shared, logic.NewBoolVar("q"))

	outA := s.Simplify(seedA)
	st := s.Stats()
	if st.NormCacheEntries == 0 {
		t.Fatal("first Simplify populated no normal-form cache entries")
	}
	missesAfterA := st.NormCacheMisses

	outB := s.Simplify(seedB)
	st = s.Stats()
	if st.NormCacheHits == 0 {
		t.Fatalf("second seed sharing subterms recorded no cache hits: %+v", st)
	}
	if outA == outB {
		t.Fatal("distinct seeds returned the same outcome")
	}

	// A repeat of seedA is answered by the per-seed outcome cache
	// without touching the normalizer at all.
	out2 := s.Simplify(seedA)
	if out2 != outA {
		t.Fatal("repeat seed did not reuse the cached outcome")
	}
	st = s.Stats()
	if st.SimplifyHits != 1 {
		t.Fatalf("SimplifyHits = %d, want 1", st.SimplifyHits)
	}
	if st.NormCacheMisses < missesAfterA {
		t.Fatal("NormCacheMisses went backwards")
	}
}

func TestSessionSimplifyConcurrent(t *testing.T) {
	s := newSession(t)
	x := logic.NewIntVar("x", 0, 15)
	seeds := make([]logic.Term, 16)
	for i := range seeds {
		seeds[i] = logic.And(
			logic.Eq(x, logic.NewInt(int64(i%4))),
			logic.Lt(x, logic.NewInt(int64(4+i%8))),
			logic.NewBoolVar("p"),
		)
	}
	want := make([]*engine.SimplifyOutcome, len(seeds))
	for i, seed := range seeds {
		want[i] = s.Simplify(seed)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range seeds {
				i := (k*5 + g*3) % len(seeds)
				got := s.Simplify(seeds[i])
				if got.Simplified != want[i].Simplified {
					t.Errorf("goroutine %d seed %d: %s != %s",
						g, i, got.Simplified, want[i].Simplified)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
