package smt

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/sat"
)

func TestVerifyUnsatWithoutAssumptions(t *testing.T) {
	s := NewSolver(WithProof())
	x := logic.NewBoolVar("x")
	y := logic.NewBoolVar("y")
	mustAssert(t, s, logic.Or(x, y))
	mustAssert(t, s, logic.Or(x, logic.Not(y)))
	mustAssert(t, s, logic.Or(logic.Not(x), y))
	mustAssert(t, s, logic.Or(logic.Not(x), logic.Not(y)))
	mustSolve(t, s, sat.Unsat)
	rep, err := s.VerifyLastUnsat()
	if err != nil {
		t.Fatalf("VerifyLastUnsat: %v", err)
	}
	if rep.Ops == 0 || rep.TraceLen == 0 {
		t.Fatalf("empty proof report: %+v", rep)
	}
}

func TestVerifyErrors(t *testing.T) {
	s := NewSolver()
	x := logic.NewBoolVar("x")
	mustAssert(t, s, x)
	mustSolve(t, s, sat.Sat)
	if _, err := s.VerifyLastUnsat(); err == nil {
		t.Fatalf("VerifyLastUnsat succeeded with proof logging off")
	}

	p := NewSolver(WithProof())
	mustAssert(t, p, x)
	mustSolve(t, p, sat.Sat)
	if _, err := p.VerifyLastUnsat(); err == nil {
		t.Fatalf("VerifyLastUnsat succeeded after a Sat verdict")
	}
}

func TestCoreDeduplicatesRepeatedAssumptions(t *testing.T) {
	s := NewSolver(WithProof())
	a := logic.NewBoolVar("a")
	mustAssert(t, s, logic.Not(a))
	mustSolve(t, s, sat.Unsat, a, a, a)
	core := s.Core()
	if len(core) != 1 {
		t.Fatalf("core = %v, want exactly one entry for a repeated assumption", core)
	}
	// The terminal lemma negates the deduplicated core: verification
	// pins the one against the other.
	if _, err := s.VerifyLastUnsat(); err != nil {
		t.Fatalf("VerifyLastUnsat: %v", err)
	}
}

// TestVerifyTwoVerdictsOnOneSolver follows one solver across two Unsat
// verdicts: the incremental checker must consume only the trace
// operations recorded since the first verification, paying for each
// operation once.
func TestVerifyTwoVerdictsOnOneSolver(t *testing.T) {
	s := NewSolver(WithProof())
	a := logic.NewBoolVar("a")
	b := logic.NewBoolVar("b")
	mustAssert(t, s, logic.Or(a, b))

	mustSolve(t, s, sat.Unsat, logic.Not(a), logic.Not(b))
	rep1, err := s.VerifyLastUnsat()
	if err != nil {
		t.Fatalf("verify first verdict: %v", err)
	}
	if rep1.Ops != rep1.TraceLen {
		t.Fatalf("first verification checked %d ops of %d", rep1.Ops, rep1.TraceLen)
	}

	mustAssert(t, s, logic.Not(a))
	mustSolve(t, s, sat.Sat)
	mustSolve(t, s, sat.Unsat, logic.Not(b))
	rep2, err := s.VerifyLastUnsat()
	if err != nil {
		t.Fatalf("verify second verdict: %v", err)
	}
	if rep2.TraceLen <= rep1.TraceLen {
		t.Fatalf("trace did not grow across verdicts: %d then %d", rep1.TraceLen, rep2.TraceLen)
	}
	if rep2.Ops != rep2.TraceLen-rep1.TraceLen {
		t.Fatalf("second verification checked %d ops, want the %d recorded since the first",
			rep2.Ops, rep2.TraceLen-rep1.TraceLen)
	}
}

// TestEnumerationBlockingClausesStayChecked runs the lift's
// sufficiency loop in miniature: each Sat model is excluded by a
// constraint asserted between solves, and the loop ends at an Unsat
// whose proof must cover every such constraint, since the first
// constraint alone is satisfiable.
func TestEnumerationBlockingClausesStayChecked(t *testing.T) {
	s := NewSolver(WithProof())
	n := logic.NewIntVar("n", 0, 3)
	mustAssert(t, s, logic.Le(n, logic.NewInt(1)))
	var seen []int64
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
		seen = append(seen, val.I)
		if len(seen) > 2 {
			t.Fatalf("models %v: an excluded value came back", seen)
		}
		mustAssert(t, s, logic.Ne(n, val.Term()))
	}
	if len(seen) != 2 {
		t.Fatalf("excluded %v before the Unsat, want both values of n <= 1", seen)
	}
	if _, err := s.VerifyLastUnsat(); err != nil {
		t.Fatalf("verify the final Unsat: %v", err)
	}
}
