package smt

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/sat"
)

func TestIncrementalAssertAfterSolve(t *testing.T) {
	// Assert, solve, assert more, solve again: the solver is
	// incremental and must stay consistent.
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 10)
	mustAssert(t, s, logic.Ge(n, logic.NewInt(3)))
	mustSolve(t, s, sat.Sat)
	mustAssert(t, s, logic.Le(n, logic.NewInt(5)))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m["n"].I < 3 || m["n"].I > 5 {
		t.Fatalf("n = %d outside [3,5]", m["n"].I)
	}
	mustAssert(t, s, logic.Gt(n, logic.NewInt(5)))
	mustSolve(t, s, sat.Unsat)
}

func TestRepeatedSolveWithDifferentAssumptions(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 10)
	mustAssert(t, s, logic.Ne(n, logic.NewInt(5)))
	for i := int64(0); i <= 10; i++ {
		st, err := s.Solve(logic.Eq(n, logic.NewInt(i)))
		if err != nil {
			t.Fatal(err)
		}
		want := sat.Sat
		if i == 5 {
			want = sat.Unsat
		}
		if st != want {
			t.Fatalf("n=%d: %v, want %v", i, st, want)
		}
	}
}

func TestSolverStats(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", 0, 30)
	m := logic.NewIntVar("m", 0, 30)
	mustAssert(t, s, logic.Ge(m, logic.NewInt(20)))
	mustAssert(t, s, logic.Gt(n, m))
	mustSolve(t, s, sat.Sat)
	if s.NumSATVars() == 0 || s.NumSATClauses() == 0 {
		t.Fatal("SAT-level sizes not reported")
	}
	if s.Stats().Propagations == 0 {
		t.Fatal("stats not wired through")
	}
}

func TestCoreEmptyWithoutFailingSolve(t *testing.T) {
	s := NewSolver()
	if core := s.sat.Core(); len(core) != 0 {
		t.Fatalf("Core before any failing solve = %v", core)
	}
	n := logic.NewIntVar("n", 0, 3)
	s.Declare(n)
	mustSolve(t, s, sat.Sat)
	if core := s.sat.Core(); len(core) != 0 {
		t.Fatalf("Core after Sat = %v", core)
	}
}

func TestIteNested(t *testing.T) {
	// Nested ite over enums: encoder must thread value lists through.
	color := logic.NewEnumSort("C7", "r", "g", "b")
	c := logic.NewEnumVar("c", color)
	x := logic.NewBoolVar("x")
	y := logic.NewBoolVar("y")
	pick := logic.Ite(x,
		logic.Ite(y, logic.NewEnum(color, "r"), logic.NewEnum(color, "g")),
		logic.NewEnum(color, "b"))
	s := NewSolver()
	mustAssert(t, s, logic.Eq(c, pick))
	mustAssert(t, s, logic.Eq(c, logic.NewEnum(color, "g")))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if !m["x"].B || m["y"].B {
		t.Fatalf("model %v should pick x=true y=false", m)
	}
}

func TestNegativeDomains(t *testing.T) {
	s := NewSolver()
	n := logic.NewIntVar("n", -5, 5)
	mustAssert(t, s, logic.Lt(n, logic.NewInt(-2)))
	mustSolve(t, s, sat.Sat)
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m["n"].I >= -2 || m["n"].I < -5 {
		t.Fatalf("n = %d", m["n"].I)
	}
	// A comparison against a negative bound narrows it further.
	mustAssert(t, s, logic.Gt(n, logic.NewInt(-5)))
	mustSolve(t, s, sat.Sat)
	m, _ = s.Model()
	if m["n"].I != -4 && m["n"].I != -3 {
		t.Fatalf("n = %d, want -4 or -3", m["n"].I)
	}
}
