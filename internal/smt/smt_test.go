package smt

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/sat"
)

var colorSort = logic.NewEnumSort("Color", "red", "green", "blue")

func mustAssert(t *testing.T, s *Solver, f logic.Term) {
	t.Helper()
	if err := s.Assert(f); err != nil {
		t.Fatalf("Assert(%s): %v", f, err)
	}
}

func mustSolve(t *testing.T, s *Solver, want sat.Status, assumptions ...logic.Term) {
	t.Helper()
	got, err := s.Solve(assumptions...)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if got != want {
		t.Fatalf("Solve = %v, want %v", got, want)
	}
}

func TestBoolBasics(t *testing.T) {
	s := NewSolver()
	x, y := logic.NewBoolVar("x"), logic.NewBoolVar("y")
	mustAssert(t, s, logic.Or(x, y))
	mustAssert(t, s, logic.Not(x))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m["x"].B || !m["y"].B {
		t.Fatalf("model = %v, want x=false y=true", m)
	}
	mustAssert(t, s, logic.Not(y))
	mustSolve(t, s, sat.Unsat)
}

func TestIntComparisons(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 10)
	m := logic.NewIntVar("m", 0, 10)
	mustAssert(t, s, logic.Lt(n, m))
	mustAssert(t, s, logic.Ge(n, logic.NewInt(9)))
	mustSolve(t, s, sat.Sat)
	mod, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if mod["n"].I != 9 || mod["m"].I != 10 {
		t.Fatalf("model = %v, want n=9 m=10", mod)
	}
}

func TestEnumReasoning(t *testing.T) {
	s := NewSolver()
	c1 := logic.NewEnumVar("c1", colorSort)
	c2 := logic.NewEnumVar("c2", colorSort)
	c3 := logic.NewEnumVar("c3", colorSort)
	// Three mutually distinct colors over a 3-value enum: forces a
	// permutation.
	mustAssert(t, s, logic.Ne(c1, c2))
	mustAssert(t, s, logic.Ne(c2, c3))
	mustAssert(t, s, logic.Ne(c1, c3))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{m["c1"].E: true, m["c2"].E: true, m["c3"].E: true}
	if len(seen) != 3 {
		t.Fatalf("model is not a permutation: %v", m)
	}
	// Pin two of them and force the third.
	mustAssert(t, s, logic.Eq(c1, logic.NewEnum(colorSort, "red")))
	mustAssert(t, s, logic.Eq(c2, logic.NewEnum(colorSort, "green")))
	mustSolve(t, s, sat.Sat)
	m, _ = s.Model()
	if m["c3"].E != "blue" {
		t.Fatalf("c3 = %v, want blue", m["c3"])
	}
}

func TestIte(t *testing.T) {
	s := NewSolver()
	x := logic.NewBoolVar("x")
	n := logic.NewIntVar("n", 0, 5)
	// n = ite(x, 4, 1) and n > 2 forces x.
	mustAssert(t, s, logic.Eq(n, logic.Ite(x, logic.NewInt(4), logic.NewInt(1))))
	mustAssert(t, s, logic.Gt(n, logic.NewInt(2)))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if !m["x"].B || m["n"].I != 4 {
		t.Fatalf("model = %v, want x=true n=4", m)
	}
}

func TestBoolIte(t *testing.T) {
	s := NewSolver()
	x, y, z := logic.NewBoolVar("x"), logic.NewBoolVar("y"), logic.NewBoolVar("z")
	mustAssert(t, s, logic.Ite(x, y, z))
	mustAssert(t, s, x)
	mustAssert(t, s, logic.Not(z))
	mustSolve(t, s, sat.Sat)
	m, _ := s.Model()
	if !m["y"].B {
		t.Fatal("y must be true when x selects the then-branch")
	}
}

func TestAssumptionsAndCore(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 10)
	mustAssert(t, s, logic.Le(n, logic.NewInt(5)))

	a1 := logic.Ge(n, logic.NewInt(3))
	a2 := logic.Ge(n, logic.NewInt(7)) // conflicts with assertion
	a3 := logic.Le(n, logic.NewInt(9))

	mustSolve(t, s, sat.Sat, a1, a3)
	mustSolve(t, s, sat.Unsat, a1, a2, a3)
	if len(s.sat.Core()) == 0 {
		t.Fatal("expected non-empty core")
	}
	if !coreHas(t, s, a2) {
		t.Fatalf("core %v must contain the conflicting assumption", s.sat.Core())
	}
	if coreHas(t, s, a3) {
		t.Fatal("a3 cannot be in a minimal-ish core")
	}
	// Solver stays usable.
	mustSolve(t, s, sat.Sat)
}

// coreHas reports whether the SAT-level core of s's last Unsat, the
// core VerifyLastUnsat reads, holds the literal of the assumption a.
func coreHas(t *testing.T, s *Solver, a logic.Term) bool {
	t.Helper()
	l, err := s.litOf(a)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Contains(s.sat.Core(), l)
}

func TestDeclare(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 3)
	if err := s.Declare(n); err != nil {
		t.Fatal(err)
	}
	// Redeclaring identically is fine.
	if err := s.Declare(logic.NewIntVar("n", 0, 3)); err != nil {
		t.Fatal(err)
	}
	// Redeclaring with a different domain is an error.
	if err := s.Declare(logic.NewIntVar("n", 0, 5)); err == nil {
		t.Fatal("redeclaration with different domain should fail")
	}
	if err := s.Declare(logic.NewBoolVar("n")); err == nil {
		t.Fatal("redeclaration with different sort should fail")
	}
	// Declared-but-unconstrained variables appear in the model.
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m["n"]; !ok || v.I < 0 || v.I > 3 {
		t.Fatalf("model for unconstrained n = %v, want in [0,3]", m["n"])
	}
}

func TestDomainCap(t *testing.T) {
	s := NewSolver()
	big := logic.NewIntVar("big", 0, MaxValueListSize+10)
	if err := s.Assert(logic.Eq(big, logic.NewInt(0))); err == nil {
		t.Fatal("oversized domain should be rejected")
	}
}

func TestAssertNonBool(t *testing.T) {
	s := NewSolver()
	if err := s.Assert(logic.NewInt(3)); err == nil {
		t.Fatal("asserting an int term should fail")
	}
	if _, err := s.Solve(logic.NewInt(3)); err == nil {
		t.Fatal("assuming an int term should fail")
	}
}

func TestLargeDomainExactlyOne(t *testing.T) {
	// Exercises the sequential at-most-one encoding (domain > 6).
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 50)
	mustAssert(t, s, logic.Eq(n, logic.NewInt(37)))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m["n"].I != 37 {
		t.Fatalf("n = %d, want 37", m["n"].I)
	}
}

func TestSharedSubtermMemoization(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 20)
	shared := logic.Ge(n, logic.NewInt(10))
	mustAssert(t, s, logic.Or(shared, logic.Eq(n, logic.NewInt(0))))
	before := s.NumSATVars()
	mustAssert(t, s, logic.Implies(shared, logic.Le(n, logic.NewInt(15))))
	after := s.NumSATVars()
	// The shared comparison must not be re-encoded: only the new
	// comparison and connective overhead may allocate variables.
	if after-before > 30 {
		t.Fatalf("memoization broken: %d new sat vars for reusing a shared subterm", after-before)
	}
	mustSolve(t, s, sat.Sat)
}

// --- Differential property tests against the term evaluator. ---

// Vocabulary mirroring the one in logic's quick tests, kept small so
// exhaustive model enumeration is cheap.
var (
	dvBools = []*logic.Var{logic.NewBoolVar("p"), logic.NewBoolVar("q")}
	dvInts  = []*logic.Var{logic.NewIntVar("i", 0, 3), logic.NewIntVar("j", -2, 2)}
	dvEnum  = logic.NewEnumVar("col", colorSort)
)

func randTerm(r *rand.Rand, depth int) logic.Term {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return dvBools[r.Intn(2)]
		case 1:
			return logic.NewBool(r.Intn(2) == 0)
		case 2:
			return logic.Eq(dvEnum, logic.NewEnum(colorSort, colorSort.Values[r.Intn(3)]))
		case 3:
			return logic.Le(dvInts[r.Intn(2)], logic.NewInt(int64(r.Intn(7)-3)))
		default:
			return logic.Eq(dvInts[0], dvInts[1])
		}
	}
	switch r.Intn(6) {
	case 0:
		return logic.And(randTerm(r, depth-1), randTerm(r, depth-1))
	case 1:
		return logic.Or(randTerm(r, depth-1), randTerm(r, depth-1))
	case 2:
		return logic.Not(randTerm(r, depth-1))
	case 3:
		return logic.Implies(randTerm(r, depth-1), randTerm(r, depth-1))
	case 4:
		return logic.Iff(randTerm(r, depth-1), randTerm(r, depth-1))
	default:
		return logic.Ite(randTerm(r, depth-1), randTerm(r, depth-1), randTerm(r, depth-1))
	}
}

// forEachAssignment enumerates the full (small) assignment space.
func forEachAssignment(f func(logic.Assignment) bool) bool {
	for pb := 0; pb < 2; pb++ {
		for qb := 0; qb < 2; qb++ {
			for i := int64(0); i <= 3; i++ {
				for j := int64(-2); j <= 2; j++ {
					for c := 0; c < 3; c++ {
						a := logic.Assignment{
							"p":   logic.BoolValue(pb == 1),
							"q":   logic.BoolValue(qb == 1),
							"i":   logic.IntValue(i),
							"j":   logic.IntValue(j),
							"col": logic.EnumValue(colorSort, colorSort.Values[c]),
						}
						if !f(a) {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// Property: the SMT solver agrees with brute-force evaluation — a term
// is satisfiable iff some assignment evaluates it true, and models
// returned actually satisfy the term.
func TestQuickAgainstEvaluator(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randTerm(r, 3)

		wantSat := false
		forEachAssignment(func(a logic.Assignment) bool {
			v, err := logic.EvalBool(term, a)
			if err != nil {
				t.Logf("eval error: %v", err)
				return false
			}
			if v {
				wantSat = true
				return false
			}
			return true
		})

		s := NewSolver()
		for _, v := range dvBools {
			s.Declare(v)
		}
		for _, v := range dvInts {
			s.Declare(v)
		}
		s.Declare(dvEnum)
		if err := s.Assert(term); err != nil {
			t.Logf("assert: %v", err)
			return false
		}
		st, err := s.Solve()
		if err != nil {
			t.Logf("solve: %v", err)
			return false
		}
		if (st == sat.Sat) != wantSat {
			t.Logf("mismatch on %s: smt=%v brute=%v", term, st, wantSat)
			return false
		}
		if st == sat.Sat {
			m, err := s.Model()
			if err != nil {
				t.Logf("model: %v", err)
				return false
			}
			ok, err := logic.EvalBool(term, m)
			if err != nil || !ok {
				t.Logf("model %v does not satisfy %s (err=%v)", m, term, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a term is valid (its negation has no model) exactly when
// brute force finds it true under every assignment, over the empty
// assertion set.
func TestQuickValidity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randTerm(r, 2)

		wantValid := forEachAssignment(func(a logic.Assignment) bool {
			v, err := logic.EvalBool(term, a)
			return err == nil && v
		})

		s := NewSolver()
		for _, v := range dvBools {
			s.Declare(v)
		}
		for _, v := range dvInts {
			s.Declare(v)
		}
		s.Declare(dvEnum)
		st, err := s.Solve(logic.Not(term))
		if err != nil {
			t.Logf("solve: %v", err)
			return false
		}
		if got := st == sat.Unsat; got != wantValid {
			t.Logf("validity mismatch on %s: smt=%v brute=%v", term, got, wantValid)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAssertAll(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 9)
	err := s.AssertAll([]logic.Term{
		logic.Ge(n, logic.NewInt(4)),
		logic.Le(n, logic.NewInt(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSolve(t, s, sat.Sat)
	m, _ := s.Model()
	if m["n"].I != 4 {
		t.Fatalf("n = %d, want 4", m["n"].I)
	}
	if err := s.AssertAll([]logic.Term{logic.NewInt(1)}); err == nil {
		t.Fatal("non-bool in AssertAll should fail")
	}
}

// TestOverlappingSolvePanics pins the concurrency guard: a second
// SolveContext entered while one is in flight must panic rather than
// race. The overlap is simulated deterministically by marking the
// solver busy, exactly as an in-flight solve does.
func TestOverlappingSolvePanics(t *testing.T) {
	s := NewSolver()
	x := logic.NewIntVar("x", 0, 1)
	if err := s.Declare(x); err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt32(&s.busy, 1)
	defer atomic.StoreInt32(&s.busy, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping SolveContext did not panic")
		}
	}()
	s.Solve() //nolint:errcheck // must panic before returning
}

// TestConcurrentSolveGuardUnderRace hammers one shared solver from
// many goroutines; every overlap must surface as the deterministic
// panic (which we recover), never as a data race (-race enforces).
func TestConcurrentSolveGuardUnderRace(t *testing.T) {
	s := NewSolver()
	x := logic.NewIntVar("x", 0, 63)
	y := logic.NewIntVar("y", 0, 63)
	if err := s.Declare(x); err != nil {
		t.Fatal(err)
	}
	if err := s.Declare(y); err != nil {
		t.Fatal(err)
	}
	if err := s.Assert(logic.Lt(x, y)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var panics int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					atomic.AddInt32(&panics, 1)
				}
			}()
			for i := 0; i < 20; i++ {
				s.Solve(logic.Eq(x, logic.NewInt(int64(g*7%64)))) //nolint:errcheck
			}
		}(g)
	}
	wg.Wait()
	// No assertion on the panic count: whether overlaps happen is
	// scheduling-dependent. The test's value is that -race stays quiet
	// because the guard stops the second goroutine before it touches
	// solver state.
	_ = panics
}

// TestValueReadsOneVariable pins the per-variable model read the lift's
// sufficiency loop uses: each declared variable's Value is its entry in
// the full Model, for every sort, and an undeclared variable is an
// error.
func TestValueReadsOneVariable(t *testing.T) {
	s := NewSolver()
	b, n, c := logic.NewBoolVar("val_b"), logic.NewIntVar("val_n", 2, 5), logic.NewEnumVar("val_c", colorSort)
	mustAssert(t, s, logic.And(logic.Not(b), logic.Eq(n, logic.NewInt(4)), logic.Ne(c, logic.NewEnum(colorSort, "red"))))
	mustAssert(t, s, logic.Ne(c, logic.NewEnum(colorSort, "green")))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"val_b": "false", "val_n": "4", "val_c": "blue"}
	for _, v := range []*logic.Var{b, n, c} {
		got, err := s.Value(v)
		if err != nil {
			t.Fatalf("Value(%s): %v", v.Name, err)
		}
		if !got.Equal(m[v.Name]) || got.String() != want[v.Name] {
			t.Errorf("Value(%s) = %v, model %v, want %s", v.Name, got, m[v.Name], want[v.Name])
		}
	}
	if _, err := s.Value(logic.NewBoolVar("val_undeclared")); err == nil {
		t.Error("Value of an undeclared variable: no error")
	}
}

// TestEnumerateModelsExhaustive walks every model of a constrained
// domain by excluding each one between solves, as the lift's
// sufficiency loop does: each value of n in 0..4 but the excluded 2
// comes back exactly once, and the walk ends at an Unsat.
func TestEnumerateModelsExhaustive(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 4)
	mustAssert(t, s, logic.Ne(n, logic.NewInt(2)))
	seen := map[int64]bool{}
	for {
		st, err := s.Solve()
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if st == sat.Unsat {
			break
		}
		val, err := s.Value(n)
		if err != nil {
			t.Fatalf("Value: %v", err)
		}
		if seen[val.I] {
			t.Fatalf("model n=%d came back after its exclusion (seen %v)", val.I, seen)
		}
		seen[val.I] = true
		mustAssert(t, s, logic.Ne(n, val.Term()))
	}
	if seen[2] || len(seen) != 4 {
		t.Fatalf("models = %v, want n in {0,1,3,4}", seen)
	}
}
