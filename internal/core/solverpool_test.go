package core

import (
	"context"
	"testing"

	"repro/internal/scenarios"
	"repro/internal/smt"
)

// TestPooledSolverStatsAcrossCancel drives two query-scoped solvers
// through their lifecycle — build, solve, release — the second with a
// cancelled solve, and pins the session's harvested counters: each
// solver's work is merged exactly once, on release, and a cancelled
// query neither loses its attempt nor wraps any counter.
func TestPooledSolverStatsAcrossCancel(t *testing.T) {
	sc := scenarios.All()[0]
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	before := e.Stats()

	build := func(*smt.Solver) error { return nil }
	sv, release, err := e.buildSolver(build)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sv.SolveContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Solves - before.Solves; got != 0 {
		t.Fatalf("before release: harvested %d solves, want 0", got)
	}
	release()

	mid := e.Stats()
	if got := mid.Solves - before.Solves; got != 3 {
		t.Fatalf("after release: harvested %d solves, want 3", got)
	}

	sv2, release2, err := e.buildSolver(build)
	if err != nil {
		t.Fatal(err)
	}
	if sv2 == sv {
		t.Fatal("second query reused the first query's solver")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sv2.SolveContext(ctx); err == nil {
		t.Fatalf("cancelled solve did not report an error")
	}
	release2()

	after := e.Stats()
	// The cancelled attempt counts once; the first solver's three
	// solves are not merged again.
	if delta := after.Solves - mid.Solves; delta != 1 {
		t.Fatalf("second release merged %d solves, want 1", delta)
	}
	// The failure mode a wrapped unsigned counter would show: totals in
	// the billions.
	if after.Solves-before.Solves > 100 || after.Conflicts < mid.Conflicts || after.Propagations < mid.Propagations {
		t.Fatalf("counters wrapped or went backwards: %+v", after)
	}
}
