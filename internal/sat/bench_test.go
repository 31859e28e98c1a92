package sat

import (
	"math/rand"
	"testing"
)

// The microbenchmarks below are the SAT-level half of the satcore
// performance story: each one isolates a hot path — propagation over
// binary-clause chains and exactly-one groups (the SMT layer's shape),
// learnt-database reduction, and raw search on hard instances. Every
// clause propagates over the same two-watched-literal lists. They are
// fully deterministic (fixed seeds, no wall-clock dependence) so
// before/after runs compare the same work.

// Named seeds for the random-3SAT benchmark generators. The BENCH_*.json
// methodology notes refer to these by name: the "hard" seed pins the
// near-transition unsat instance every before/after comparison races on,
// the "sat" seed pins the below-transition satisfiable instance. Changing
// either invalidates every recorded baseline.
const (
	benchSeedHard3SAT int64 = 7 // 130 vars, 559 clauses, ratio ~4.3 (unsat)
	benchSeedSat3SAT  int64 = 3 // 200 vars, 800 clauses, ratio 4.0 (sat)
)

// addRandom3SAT asserts a fixed random 3-SAT instance over nVars fresh
// variables.
func addRandom3SAT(s *Solver, nVars, nClauses int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	vars := newVars(s, nVars)
	for i := 0; i < nClauses; i++ {
		a := Var(r.Intn(nVars))
		b := Var(r.Intn(nVars))
		c := Var(r.Intn(nVars))
		s.AddClause(MkLit(vars[a], r.Intn(2) == 0), MkLit(vars[b], r.Intn(2) == 0), MkLit(vars[c], r.Intn(2) == 0))
	}
}

// BenchmarkSolvePigeonhole measures raw CDCL search on PHP(8,7):
// unsatisfiable, conflict-analysis heavy, zero binary clauses beyond
// the at-most-one pairs.
func BenchmarkSolvePigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) must be unsat")
		}
	}
}

// BenchmarkSolveRandom3SATHard measures search on a hard random 3-SAT
// instance near the phase transition (ratio ~4.3). The instance is
// large enough to trigger repeated learnt-database reductions, so
// clause-management cost (sorting) shows up here too.
func BenchmarkSolveRandom3SATHard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		addRandom3SAT(s, 130, 559, benchSeedHard3SAT)
		if s.Solve() == Unknown {
			b.Fatal("unexpected Unknown without a cancelled context")
		}
	}
}

// BenchmarkSolveRandom3SATSat measures search on a satisfiable random
// instance below the transition (ratio 4.0), where restarts and phase
// saving dominate.
func BenchmarkSolveRandom3SATSat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		addRandom3SAT(s, 200, 800, benchSeedSat3SAT)
		if s.Solve() == Unknown {
			b.Fatal("unexpected Unknown without a cancelled context")
		}
	}
}

// BenchmarkSolveRandom3SATFamily measures search over families rather
// than one pinned seed: each op solves seeds 100-129 of both pinned
// shapes (200 vars / 800 clauses and 130 vars / 559 clauses), so a
// search-policy change is judged on sixty instances of both verdicts
// instead of on one lucky or unlucky seed.
func BenchmarkSolveRandom3SATFamily(b *testing.B) {
	shapes := [][2]int{{200, 800}, {130, 559}}
	for i := 0; i < b.N; i++ {
		for seed := int64(100); seed < 130; seed++ {
			for _, sh := range shapes {
				s := NewSolver()
				addRandom3SAT(s, sh[0], sh[1], seed)
				if s.Solve() == Unknown {
					b.Fatal("unexpected Unknown without a cancelled context")
				}
			}
		}
	}
}

// BenchmarkPropagateBinaryChain measures pure binary-clause
// propagation: a long implication chain x0 -> x1 -> ... -> xn driven
// back and forth by alternating assumption solves. Every propagation
// comes from a two-literal clause on the watch lists, so this probes
// the per-watcher cost of the propagation loop with no replacement
// watch to search for.
func BenchmarkPropagateBinaryChain(b *testing.B) {
	const n = 4000
	s := NewSolver()
	vars := newVars(s, n)
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vars[i]), PosLit(vars[i+1]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(PosLit(vars[0])) != Sat {
			b.Fatal("chain head assumption must be sat")
		}
		if s.Solve(NegLit(vars[n-1])) != Sat {
			b.Fatal("chain tail assumption must be sat")
		}
	}
}

// BenchmarkPropagateExactlyOneGrid mimics the SMT layer's dominant
// clause shape: chains of exactly-one value groups (pairwise at-most-
// one is all binary clauses) linked by binary equalities, solved under
// alternating assumptions. This is what bit-blasted finite-domain
// encodings look like to the SAT core.
func BenchmarkPropagateExactlyOneGrid(b *testing.B) {
	const groups, width = 400, 6
	s := NewSolver()
	grid := make([][]Lit, groups)
	for g := range grid {
		vs := newVars(s, width)
		lits := make([]Lit, width)
		for i, v := range vs {
			lits[i] = PosLit(v)
		}
		grid[g] = lits
		s.AddClause(lits...) // at least one
		for i := 0; i < width; i++ {
			for j := i + 1; j < width; j++ {
				s.AddClause(lits[i].Neg(), lits[j].Neg())
			}
		}
	}
	// Link consecutive groups: picking value i in group g forces value
	// i in group g+1 (all binary clauses).
	for g := 0; g+1 < groups; g++ {
		for i := 0; i < width; i++ {
			s.AddClause(grid[g][i].Neg(), grid[g+1][i])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Solve(grid[0][i%width]) != Sat {
			b.Fatal("grid assumption must be sat")
		}
	}
}

// BenchmarkAssumptionCores measures an Unsat-under-assumptions query
// with core extraction — the shape of every lift-stage necessity probe.
// Each iteration builds a fresh solver over the same chain, as each
// lift query's solver is query-scoped: a reused solver would learn ¬x0
// at level 0 on the first solve and fail every later one without
// propagating.
func BenchmarkAssumptionCores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		vars := newVars(s, 64)
		// xi -> xi+1 chain plus a clause forbidding the far end under x0.
		for j := 0; j+1 < len(vars); j++ {
			s.AddClause(NegLit(vars[j]), PosLit(vars[j+1]))
		}
		s.AddClause(NegLit(vars[0]), NegLit(vars[len(vars)-1]))
		props := s.Stats.Propagations
		if s.Solve(PosLit(vars[0]), PosLit(vars[1])) != Unsat {
			b.Fatal("assumptions must fail")
		}
		if len(s.Core()) == 0 {
			b.Fatal("missing core")
		}
		if s.Stats.Propagations == props {
			b.Fatal("the solve failed without propagating")
		}
	}
}
