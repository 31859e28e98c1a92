package core

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenarios"
	"repro/internal/spec"
)

// TestSessionOneBaseEncode checks the headline property of the shared
// cache: a whole-network report performs exactly one base encode, and
// repeating a query is answered from the cache.
func TestSessionOneBaseEncode(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)

	if _, err := e.Report(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// One whole-network encode: the recorded base every per-router
	// encode splices from.
	if st.BaseEncodes != 1 {
		t.Errorf("BaseEncodes = %d after a multi-router report, want 1", st.BaseEncodes)
	}
	if st.Encodes < 2 {
		t.Errorf("Encodes = %d, want one per configured router (>= 2)", st.Encodes)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d on first report, want 0", st.CacheHits)
	}
	if st.EncodeTime <= 0 {
		t.Error("EncodeTime not recorded")
	}
	if st.Solves == 0 {
		t.Error("no solver stats folded in by lifting")
	}

	// A repeated explanation re-uses the cached encoding.
	if _, err := e.ExplainAll("R1"); err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.BaseEncodes != st.BaseEncodes {
		t.Errorf("BaseEncodes = %d after repeat, want still %d", st2.BaseEncodes, st.BaseEncodes)
	}
	if st2.Encodes != st.Encodes {
		t.Errorf("Encodes grew %d -> %d on a repeated query", st.Encodes, st2.Encodes)
	}
	if st2.CacheHits != st.CacheHits+1 {
		t.Errorf("CacheHits = %d after repeat, want %d", st2.CacheHits, st.CacheHits+1)
	}

	// CheckSubspec evaluates the clauses on the session base: it
	// encodes nothing and looks nothing up in the encode cache.
	ex, err := e.ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec.IsEmpty() {
		t.Fatal("R1's lifted subspec is empty")
	}
	before := e.Stats()
	if _, err := e.CheckSubspec("R1", ex.Subspec); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.BaseEncodes != before.BaseEncodes || after.Encodes != before.Encodes || after.CacheHits != before.CacheHits {
		t.Errorf("CheckSubspec moved BaseEncodes %d -> %d, Encodes %d -> %d, CacheHits %d -> %d; want none",
			before.BaseEncodes, after.BaseEncodes, before.Encodes, after.Encodes, before.CacheHits, after.CacheHits)
	}
}

// TestSessionBaseContract pins the session's one encode path. Whatever
// its first query, a session performs exactly one whole-network encode
// — its recorded base — and every query's encoding splices from it,
// while CheckSubspec reads the base itself and derives no encoding;
// concurrent first queries share one build; an encoder error reaches
// the query; and a build that failed on its context is retried.
func TestSessionBaseContract(t *testing.T) {
	sc := scenarios.Scenario2()
	dep := synthScenario(t, sc)
	ctx := context.Background()
	r1 := &spec.Block{Name: "R1", Reqs: []spec.Requirement{&spec.Forbid{Path: spec.NewPath("R1", "P1")}}}

	for _, q := range []struct {
		name    string
		run     func(e *Explainer) error
		derives bool
	}{
		{"explain_all", func(e *Explainer) error { _, err := e.ExplainAll("R1"); return err }, true},
		{"write_report", func(e *Explainer) error { _, err := e.WriteReport(ctx, io.Discard); return err }, true},
		{"complement", func(e *Explainer) error { _, err := e.ExplainComplement("R3"); return err }, true},
		{"check_subspec", func(e *Explainer) error { _, err := e.CheckSubspec("R1", r1); return err }, false},
	} {
		t.Run(q.name, func(t *testing.T) {
			e := newExplainer(t, sc, dep, nil)
			if err := q.run(e); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.BaseEncodes != 1 {
				t.Errorf("BaseEncodes = %d, want 1", st.BaseEncodes)
			}
			if !q.derives {
				if st.Encodes != 0 {
					t.Errorf("Encodes = %d, want 0: the query derived an encoding", st.Encodes)
				}
				return
			}
			if st.Encodes == 0 || st.ScopedGroupsCopied == 0 {
				t.Errorf("encodes = %d, groups copied = %d: the query did not splice from the base", st.Encodes, st.ScopedGroupsCopied)
			}
		})
	}

	t.Run("concurrent_first_queries", func(t *testing.T) {
		e := newExplainer(t, sc, dep, nil)
		routers := []string{"R1", "R2", "R3", "R1", "R2", "R3"}
		var wg sync.WaitGroup
		errs := make([]error, len(routers))
		for i, r := range routers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = e.ExplainAll(r)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", routers[i], err)
			}
		}
		if st := e.Stats(); st.BaseEncodes != 1 {
			t.Errorf("BaseEncodes = %d after concurrent first queries, want 1", st.BaseEncodes)
		}
	})

	t.Run("requirement_error", func(t *testing.T) {
		reqs := append(sc.Requirements(), &spec.Allow{Path: spec.NewPath("P1", "P2")})
		e := newExplainer(t, sc, dep, reqs)
		for i := 0; i < 2; i++ {
			_, err := e.ExplainAll("R1")
			if err == nil || !strings.Contains(err.Error(), "matches no candidate path") {
				t.Fatalf("query %d: err = %v, want the encoder's allow error", i, err)
			}
		}
		if st := e.Stats(); st.BaseEncodes != 0 {
			t.Errorf("BaseEncodes = %d after a failed build, want 0", st.BaseEncodes)
		}
	})

	t.Run("cancelled_build_not_latched", func(t *testing.T) {
		e := newExplainer(t, sc, dep, nil)
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := e.Session.PrepareScoped(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("PrepareScoped on a cancelled context: err = %v, want context.Canceled", err)
		}
		if _, err := e.ExplainAll("R1"); err != nil {
			t.Fatalf("query after a cancelled build: %v", err)
		}
		if st := e.Stats(); st.BaseEncodes != 1 {
			t.Errorf("BaseEncodes = %d, want 1", st.BaseEncodes)
		}
	})
}

// TestBudgetDeadlineAbortsReport checks that an already-expired
// context deadline aborts ExplainAll and Report cleanly — with a
// deadline error, not a hang or a partial result — and leaks no
// goroutines.
func TestBudgetDeadlineAbortsReport(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	before := runtime.NumGoroutine()
	if _, err := e.ExplainAllContext(ctx, "R1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ExplainAll err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := e.ReportContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Report err = %v, want context.DeadlineExceeded", err)
	}
	// The worker pool must have drained. NumGoroutine is noisy
	// (runtime helpers come and go), so allow it to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBudgetDeadlineMidReport cancels a report that is already under
// way and checks clean abort plus goroutine drain.
func TestBudgetDeadlineMidReport(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.ReportContext(ctx)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		// nil if the report beat the cancel; otherwise it must be the
		// cancellation, propagated from whatever layer saw it first.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("ReportContext err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ReportContext did not return after cancellation")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
