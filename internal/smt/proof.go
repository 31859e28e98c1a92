package smt

// Proof verification.
//
// With WithProof enabled, the underlying SAT solver records every input
// clause, learnt lemma, and deletion. This file re-validates those
// traces with the independent checker in internal/drat and pins each
// checked trace to the verdict it is asked about.
//
// Verification is incremental: one checker per Solver consumes the
// append-only trace from a cursor, so a caller that checks many
// verdicts of one solver pays for each trace operation once, not once
// per verdict.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/drat"
	"repro/internal/sat"
)

// ProofReport summarizes one verification pass.
type ProofReport struct {
	// Ops is how many trace operations this pass fed to the checker
	// (the delta since the previous verification on this solver).
	Ops int
	// Lemmas is how many of those were solver-derived clauses.
	Lemmas int
	// TraceLen is the total trace length after this pass.
	TraceLen int
	// Duration is the wall-clock time the checker spent.
	Duration time.Duration
}

// opFromTrace converts a trace operation to a checker operation over
// 1-based DIMACS literals.
func opFromTrace(op sat.ProofOp) drat.Op {
	lits := make([]int, len(op.Lits))
	for j, l := range op.Lits {
		lits[j] = dimacsLit(l)
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
	return drat.Op{Kind: kind, Lits: lits}
}

func dimacsLit(l sat.Lit) int {
	v := int(l.Var()) + 1
	if !l.IsPos() {
		return -v
	}
	return v
}

// VerifyLastUnsat re-validates the proof behind the most recent Unsat
// verdict with the independent checker. Every trace operation recorded
// since the previous verification is checked (each lemma must be a RUP
// consequence of the clauses before it), and the verdict's terminal
// lemma must certify exactly this query: the empty clause for an
// unconditional Unsat, or a clause over the negated assumptions
// matching the SAT-level core for an Unsat under assumptions.
//
// It returns an error if proof logging is off, the last solve was not
// Unsat, or — the case that matters — the trace does not check.
func (s *Solver) VerifyLastUnsat() (ProofReport, error) {
	var rep ProofReport
	tr := s.sat.Proof()
	if tr == nil {
		return rep, fmt.Errorf("smt: proof logging is off (construct the solver with WithProof)")
	}
	if s.lastStatus != sat.Unsat {
		return rep, fmt.Errorf("smt: last solve was %v, nothing to verify", s.lastStatus)
	}
	start := time.Now()
	if s.chk == nil {
		s.chk = drat.NewChecker()
	}
	chk := s.chk
	for ; s.chkCursor < tr.Len(); s.chkCursor++ {
		op := opFromTrace(tr.Op(s.chkCursor))
		if err := chk.Apply(op); err != nil {
			return rep, fmt.Errorf("smt: proof rejected at op %d: %w", s.chkCursor, err)
		}
		rep.Ops++
		if op.Kind == drat.Learn {
			rep.Lemmas++
		}
	}
	rep.TraceLen = tr.Len()

	core := s.sat.Core()
	if len(core) == 0 {
		// Unconditional Unsat: the checker must have derived the empty
		// clause from the inputs alone.
		if !chk.RootConflict() {
			return rep, fmt.Errorf("smt: verdict is Unsat but the checked trace has no root conflict")
		}
	} else {
		// The terminal lemma is the negation of the assumption core.
		// It was RUP-checked like every other lemma above; here we pin
		// it to this verdict by matching it against the solver's core.
		clause := make([]int, len(core))
		for i, l := range core {
			clause[i] = dimacsLit(l.Neg())
		}
		// Compared as literal sets; both slices are this call's own.
		last, okLast := s.lastLearn(tr)
		slices.Sort(last)
		slices.Sort(clause)
		last, clause = slices.Compact(last), slices.Compact(clause)
		if !okLast || !slices.Equal(last, clause) {
			return rep, fmt.Errorf("smt: terminal lemma %v does not match the negated core %v", last, clause)
		}
	}
	rep.Duration = time.Since(start)
	return rep, nil
}

// lastLearn returns the literals of the final Learn operation in the
// trace, converted to DIMACS form.
func (s *Solver) lastLearn(tr *sat.Trace) ([]int, bool) {
	for i := tr.Len() - 1; i >= 0; i-- {
		op := tr.Op(i)
		if op.Kind == sat.ProofLearn {
			return opFromTrace(op).Lits, true
		}
	}
	return nil, false
}
