package drat_test

import (
	"testing"

	"repro/internal/drat"
	"repro/internal/sat"
)

// traceOps converts a solver trace to checker operations over 1-based
// DIMACS literals, the mapping internal/smt uses.
func traceOps(t *sat.Trace) []drat.Op {
	ops := make([]drat.Op, 0, t.Len())
	for i := 0; i < t.Len(); i++ {
		op := t.Op(i)
		lits := make([]int, len(op.Lits))
		for j, l := range op.Lits {
			v := int(l.Var()) + 1
			if !l.IsPos() {
				v = -v
			}
			lits[j] = v
		}
		var kind drat.OpKind
		switch op.Kind {
		case sat.ProofInput:
			kind = drat.Input
		case sat.ProofLearn:
			kind = drat.Learn
		default:
			kind = drat.Delete
		}
		ops = append(ops, drat.Op{Kind: kind, Lits: lits})
	}
	return ops
}

// tracedSolver returns a fresh solver with a proof trace attached and n
// allocated variables.
func tracedSolver(t *testing.T, n int) (*sat.Solver, *sat.Trace, []sat.Lit) {
	t.Helper()
	s := sat.NewSolver()
	tr := sat.NewTrace()
	if err := s.SetProof(tr); err != nil {
		t.Fatalf("SetProof: %v", err)
	}
	lits := make([]sat.Lit, n)
	for i := range lits {
		lits[i] = sat.MkLit(s.NewVar(), true)
	}
	return s, tr, lits
}

func TestCheckPlainUnsat(t *testing.T) {
	// (a∨b)(a∨¬b)(¬a∨b)(¬a∨¬b): unsat, requires search and learning.
	s, tr, v := tracedSolver(t, 2)
	a, b := v[0], v[1]
	s.AddClause(a, b)
	s.AddClause(a, b.Neg())
	s.AddClause(a.Neg(), b)
	s.AddClause(a.Neg(), b.Neg())
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("Solve = %v, want Unsat", st)
	}
	ops := traceOps(tr)
	c, err := drat.Check(ops)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !c.RootConflict() {
		t.Fatalf("checker did not reach a root conflict")
	}
	last := ops[len(ops)-1]
	if last.Kind != drat.Learn || len(last.Lits) != 0 {
		t.Fatalf("final op = %v %v, want empty Learn", last.Kind, last.Lits)
	}
}

func TestCheckAssumptionCore(t *testing.T) {
	// (¬a∨x)(¬b∨x)(¬b∨¬x) under assumptions [a, b]: the core holds no
	// literal twice, and the trace checks with the negated core as its
	// terminal lemma.
	s, tr, v := tracedSolver(t, 3)
	a, b, x := v[0], v[1], v[2]
	s.AddClause(a.Neg(), x)
	s.AddClause(b.Neg(), x)
	s.AddClause(b.Neg(), x.Neg())
	if st := s.Solve(a, b); st != sat.Unsat {
		t.Fatalf("Solve = %v, want Unsat", st)
	}
	core := s.Core()
	for i, l := range core {
		for _, m := range core[i+1:] {
			if l == m {
				t.Fatalf("duplicate literal %v in core %v", l, core)
			}
		}
	}

	ops := traceOps(tr)
	if _, err := drat.Check(ops); err != nil {
		t.Fatalf("Check: %v", err)
	}
	last := ops[len(ops)-1]
	if last.Kind != drat.Learn || len(last.Lits) != len(core) {
		t.Fatalf("final op = %v %v, want the negation of core %v", last.Kind, last.Lits, core)
	}
	inLemma := make(map[int]bool, len(last.Lits))
	for _, l := range last.Lits {
		inLemma[l] = true
	}
	for _, l := range core {
		// DIMACS: variable v is v+1, and the lemma negates the literal.
		neg := -(int(l.Var()) + 1)
		if !l.IsPos() {
			neg = -neg
		}
		if !inLemma[neg] {
			t.Fatalf("terminal lemma %v is not the negated core %v", last.Lits, core)
		}
	}
}

func TestCorruptedLearnRejected(t *testing.T) {
	// A solver bug that emits a lemma that is not a consequence of the
	// formula must be caught. Simulate one by replacing a learnt clause
	// with a unit over a fresh, unconstrained variable — never RUP.
	s, tr, v := tracedSolver(t, 2)
	a, b := v[0], v[1]
	s.AddClause(a, b)
	s.AddClause(a, b.Neg())
	s.AddClause(a.Neg(), b)
	s.AddClause(a.Neg(), b.Neg())
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("Solve = %v, want Unsat", st)
	}
	ops := traceOps(tr)
	corrupted := false
	for i, op := range ops {
		if op.Kind == drat.Learn && len(op.Lits) > 0 {
			ops[i].Lits = []int{99}
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatalf("no non-empty learnt clause in trace to corrupt")
	}
	if _, err := drat.Check(ops); err == nil {
		t.Fatalf("checker accepted a corrupted learnt clause")
	}
}

func TestCorruptedLearnSignFlipRejected(t *testing.T) {
	// Flipping a literal's sign in the final core lemma of the crafted
	// instance turns it into a clause the formula does not entail.
	s, tr, v := tracedSolver(t, 3)
	a, b, x := v[0], v[1], v[2]
	s.AddClause(a.Neg(), x)
	s.AddClause(b.Neg(), x)
	s.AddClause(b.Neg(), x.Neg())
	if st := s.Solve(a, b); st != sat.Unsat {
		t.Fatalf("Solve = %v, want Unsat", st)
	}
	ops := traceOps(tr)
	last := &ops[len(ops)-1]
	if last.Kind != drat.Learn || len(last.Lits) == 0 {
		t.Fatalf("final op = %v %v, want non-empty Learn", last.Kind, last.Lits)
	}
	// The final lemma is a subset of {¬a, ¬b}; flipping ¬b to b (or, if
	// absent, ¬a to a) yields a clause satisfied by neither semantics.
	for i, l := range last.Lits {
		if l == -2 {
			last.Lits[i] = 2
		} else if l == -1 {
			last.Lits[i] = 1
		}
	}
	if _, err := drat.Check(ops); err == nil {
		t.Fatalf("checker accepted a sign-flipped core lemma")
	}
}

func TestCheckLearnRejectsNonConsequence(t *testing.T) {
	c := drat.NewChecker()
	if err := c.AddInput([]int{1, 2}); err != nil {
		t.Fatalf("AddInput: %v", err)
	}
	if err := c.CheckLearn([]int{1}); err == nil {
		t.Fatalf("accepted [1], which (1∨2) does not entail")
	}
	if err := c.CheckLearn([]int{1, 2, 3}); err != nil {
		t.Fatalf("rejected a weakening of an input clause: %v", err)
	}
}

func TestDeleteUnknownClauseRejected(t *testing.T) {
	c := drat.NewChecker()
	if err := c.AddInput([]int{1, 2}); err != nil {
		t.Fatalf("AddInput: %v", err)
	}
	if err := c.CheckDelete([]int{1, 3}); err == nil {
		t.Fatalf("accepted deletion of a clause never added")
	}
	// Deletion matches clauses by literal *set*, since the solver
	// reorders clause literals in place during search.
	if err := c.CheckDelete([]int{2, 1}); err != nil {
		t.Fatalf("rejected set-equal deletion: %v", err)
	}
	// The clause is gone now, so its lemma no longer checks.
	if err := c.CheckLearn([]int{1, 2}); err == nil {
		t.Fatalf("deleted clause still participates in RUP")
	}
}

func TestDeleteRootReasonKept(t *testing.T) {
	c := drat.NewChecker()
	if err := c.AddInput([]int{1}); err != nil {
		t.Fatalf("AddInput: %v", err)
	}
	if err := c.AddInput([]int{-1, 2}); err != nil {
		t.Fatalf("AddInput: %v", err)
	}
	// [1] justifies the root assignment of 1; deleting it must be
	// skipped so the permanent trail keeps its justification.
	if err := c.CheckDelete([]int{1}); err != nil {
		t.Fatalf("CheckDelete: %v", err)
	}
	if err := c.CheckLearn([]int{2}); err != nil {
		t.Fatalf("root propagation lost after root-reason delete: %v", err)
	}
}

func TestTautologyInputHarmless(t *testing.T) {
	c := drat.NewChecker()
	if err := c.AddInput([]int{1, -1}); err != nil {
		t.Fatalf("AddInput tautology: %v", err)
	}
	if err := c.AddInput([]int{2}); err != nil {
		t.Fatalf("AddInput: %v", err)
	}
	if err := c.CheckLearn([]int{2}); err != nil {
		t.Fatalf("CheckLearn: %v", err)
	}
	if err := c.CheckLearn([]int{1}); err == nil {
		t.Fatalf("tautology (1∨¬1) was treated as asserting 1")
	}
}
