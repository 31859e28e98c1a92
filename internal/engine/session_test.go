package engine_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
	ctx := context.Background()
	enc1, err := s.Encode(ctx, nil, "k")
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := s.Encode(ctx, nil, "k")
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
	if _, err := s.Encode(ctx, nil, "k2"); err != nil {
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

// TestSessionEncodeFirstWins runs concurrent misses of one key: each
// may encode, but every caller gets the encoding stored first (so one
// seed pointer), and a later call is a hit.
func TestSessionEncodeFirstWins(t *testing.T) {
	s := newSession(t)
	const n = 8
	var wg sync.WaitGroup
	encs := make([]*synth.Encoding, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			encs[i], errs[i] = s.Encode(context.Background(), nil, "shared")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i, enc := range encs {
		if enc != encs[0] {
			t.Fatalf("caller %d got another encoding than caller 0", i)
		}
	}
	before := s.Stats()
	if before.BaseEncodes != 1 {
		t.Errorf("BaseEncodes = %d under concurrency, want 1", before.BaseEncodes)
	}

	enc, err := s.Encode(context.Background(), nil, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if enc != encs[0] {
		t.Error("a later call got another encoding")
	}
	after := s.Stats()
	if after.CacheHits != before.CacheHits+1 || after.Encodes != before.Encodes {
		t.Errorf("later call: CacheHits %d -> %d, Encodes %d -> %d; want one more hit and no encode",
			before.CacheHits, after.CacheHits, before.Encodes, after.Encodes)
	}
}

// TestSessionEncodeCancelledCallerFailsAlone checks that no caller
// waits on another's encode: a caller cancelled during its encode fails
// and stores nothing, and a cancelled caller missing a key beside a live
// one fails alone while the live one gets the encoding.
func TestSessionEncodeCancelledCallerFailsAlone(t *testing.T) {
	s := newSession(t)
	if _, err := s.Encode(&cancelledMidEncode{Context: context.Background()}, nil, "fresh"); !errors.Is(err, context.Canceled) {
		t.Fatalf("caller cancelled mid-encode: err = %v, want context.Canceled", err)
	}
	before := s.Stats()
	if _, err := s.Encode(context.Background(), nil, "fresh"); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats(); after.Encodes != before.Encodes+1 || after.CacheHits != before.CacheHits {
		t.Errorf("after a failed encode: Encodes %d -> %d, CacheHits %d -> %d; want one more encode and no hit",
			before.Encodes, after.Encodes, before.CacheHits, after.CacheHits)
	}

	// A cancelled caller fails alone: a live caller missing the same key
	// beside it gets the encoding.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var cancelledErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, cancelledErr = s.Encode(cancelled, nil, "third")
	}()
	enc, err := s.Encode(context.Background(), nil, "third")
	wg.Wait()
	if !errors.Is(cancelledErr, context.Canceled) {
		t.Errorf("cancelled caller: err = %v, want context.Canceled", cancelledErr)
	}
	if err != nil || enc == nil {
		t.Fatalf("live caller: encoding %v, err %v", enc != nil, err)
	}
}

// cancelledMidEncode is a context whose first Err reads nil and every
// later one context.Canceled: a query that passes Encode's entry check
// and is cancelled while it encodes.
type cancelledMidEncode struct {
	context.Context
	checks atomic.Int32
}

func (c *cancelledMidEncode) Err() error {
	if c.checks.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestSessionScopedEncoding checks that every encode of a session
// splices from its one recorded base, whether or not the base was
// prepared ahead of time, and matches the plain whole-network encode of
// a copy of the deployment with the query's override applied.
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

	prepared := engine.NewSession(sc.Net, sc.Requirements(), res.Deployment, synth.DefaultOptions())
	if b, err := prepared.PrepareScoped(ctx); err != nil || b == nil {
		t.Fatalf("PrepareScoped = %v, %v for a concrete deployment", b, err)
	}
	lazy := engine.NewSession(sc.Net, sc.Requirements(), res.Deployment, synth.DefaultOptions())

	for name, sk := range sketches {
		plain, err := synth.NewEncoder(sc.Net, sk, synth.DefaultOptions()).EncodeContext(ctx, sc.Requirements())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*engine.Session{prepared, lazy} {
			enc, err := s.Encode(ctx, map[string]*config.Config{name: sk[name]}, "r|"+name)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Constraints) != len(enc.Constraints) {
				t.Fatalf("%s: %d plain vs %d spliced constraints", name, len(plain.Constraints), len(enc.Constraints))
			}
			for i := range plain.Constraints {
				if plain.Constraints[i] != enc.Constraints[i] {
					t.Fatalf("%s: constraint %d differs", name, i)
				}
			}
		}
	}

	for _, s := range []*engine.Session{prepared, lazy} {
		st := s.Stats()
		if st.Encodes != len(sketches) {
			t.Errorf("Encodes = %d, want %d", st.Encodes, len(sketches))
		}
		if st.ScopedGroupsCopied == 0 {
			t.Error("spliced encodes copied no constraint groups")
		}
		// The base is the session's one whole-network encode.
		if st.BaseEncodes != 1 {
			t.Errorf("BaseEncodes = %d, want 1", st.BaseEncodes)
		}
	}
	if _, err := prepared.PrepareScoped(ctx); err != nil {
		t.Fatal(err)
	}
	if st := prepared.Stats(); st.BaseEncodes != 1 {
		t.Errorf("repeat PrepareScoped re-encoded: BaseEncodes = %d", st.BaseEncodes)
	}
}

func TestSessionCancelledEncodeNotCached(t *testing.T) {
	s := newSession(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Encode(cancelled, nil, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Encode err = %v, want context.Canceled", err)
	}
	// The failure must not poison the key: a live context succeeds.
	if _, err := s.Encode(context.Background(), nil, "k"); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
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

	// A repeat of seedA is answered by its own normal-form entry
	// without running the normalizer, and counts no cache lookup.
	out2 := s.Simplify(seedA)
	if out2 != outA {
		t.Fatal("repeat seed did not reuse the cached outcome")
	}
	again := s.Stats()
	if again.SimplifyHits != 1 {
		t.Fatalf("SimplifyHits = %d, want 1", again.SimplifyHits)
	}
	if again.NormCacheHits != st.NormCacheHits || again.NormCacheMisses != st.NormCacheMisses {
		t.Fatalf("repeat seed counted normal-form lookups: hits %d -> %d, misses %d -> %d",
			st.NormCacheHits, again.NormCacheHits, st.NormCacheMisses, again.NormCacheMisses)
	}
	if again.NormCacheMisses < missesAfterA {
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
	want := make([]engine.SimplifyOutcome, len(seeds))
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
