package smt

// Proof verification.
//
// With WithProof enabled, the underlying SAT solver records every input
// clause, learnt lemma, and deletion. This file re-validates those
// traces with the independent checker in internal/drat and maps checked
// (and shrunk) cores back to the assumption terms of the failing query.
//
// Verification is incremental: one checker per Solver consumes the
// append-only trace from a cursor, so a caller that checks many
// verdicts of one solver pays for each trace operation once, not once
// per verdict.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/drat"
	"repro/internal/logic"
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
	// CoreLits and ShrunkCoreLits give the assumption-core clause size
	// before and after deletion-based minimization; both are zero for
	// verdicts certified by the empty clause.
	CoreLits, ShrunkCoreLits int
	// Duration is the wall-clock time the checker spent.
	Duration time.Duration
}

// ProofOps converts the recorded trace into checker operations
// (1-based DIMACS literals). It returns nil when proof logging is off.
func (s *Solver) ProofOps() []drat.Op {
	tr, ok := s.sat.Proof().(*sat.Trace)
	if !ok {
		return nil
	}
	ops := make([]drat.Op, 0, tr.Len())
	for i := 0; i < tr.Len(); i++ {
		ops = append(ops, opFromTrace(tr.Op(i)))
	}
	return ops
}

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
	rep, _, err := s.verifyLastUnsat()
	return rep, err
}

// verifyLastUnsat is VerifyLastUnsat, additionally returning the
// shrunk core clause (DIMACS literals) for CheckedCore.
func (s *Solver) verifyLastUnsat() (ProofReport, []int, error) {
	var rep ProofReport
	tr, ok := s.sat.Proof().(*sat.Trace)
	if !ok {
		return rep, nil, fmt.Errorf("smt: proof logging is off (construct the solver with WithProof)")
	}
	if s.lastStatus != sat.Unsat {
		return rep, nil, fmt.Errorf("smt: last solve was %v, nothing to verify", s.lastStatus)
	}
	start := time.Now()
	if s.chk == nil {
		s.chk = drat.NewChecker()
	}
	chk := s.chk
	for ; s.chkCursor < tr.Len(); s.chkCursor++ {
		op := opFromTrace(tr.Op(s.chkCursor))
		if err := chk.Apply(op); err != nil {
			return rep, nil, fmt.Errorf("smt: proof rejected at op %d: %w", s.chkCursor, err)
		}
		rep.Ops++
		if op.Kind == drat.Learn {
			rep.Lemmas++
		}
	}
	rep.TraceLen = tr.Len()

	core := s.sat.Core()
	var shrunk []int
	if len(core) == 0 {
		// Unconditional Unsat: the checker must have derived the empty
		// clause from the inputs alone.
		if !chk.RootConflict() {
			return rep, nil, fmt.Errorf("smt: verdict is Unsat but the checked trace has no root conflict")
		}
	} else {
		// The terminal lemma is the negation of the assumption core.
		// It was RUP-checked like every other lemma above; here we pin
		// it to this verdict by matching it against the solver's core,
		// then minimize it by deletion against the checker.
		clause := make([]int, len(core))
		for i, l := range core {
			clause[i] = dimacsLit(l.Neg())
		}
		last, okLast := s.lastLearn(tr)
		if !okLast || !sameLitSet(last, clause) {
			return rep, nil, fmt.Errorf("smt: terminal lemma %v does not match the negated core %v", last, clause)
		}
		shrunk, _ = chk.ShrinkClause(clause)
		rep.CoreLits = len(clause)
		rep.ShrunkCoreLits = len(shrunk)
	}
	rep.Duration = time.Since(start)
	return rep, shrunk, nil
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

// sameLitSet reports whether two clauses hold the same literal set.
func sameLitSet(a, b []int) bool {
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	as = dedupSorted(as)
	bs = dedupSorted(bs)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func dedupSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i > 0 && xs[i-1] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// CheckedCore returns a verified, checker-minimized unsat core for the
// last Unsat-under-assumptions verdict: the proof is re-validated
// (VerifyLastUnsat), the terminal core clause is shrunk by deletion
// against the checker, and the surviving literals are mapped back to
// the assumption terms of the failing Solve call. The result can be
// smaller than Core() — the solver's cone-based analysis is sound but
// not minimal — and is verified by construction: every drop was
// re-proved by the checker.
func (s *Solver) CheckedCore() ([]logic.Term, ProofReport, error) {
	rep, shrunk, err := s.verifyLastUnsat()
	if err != nil {
		return nil, rep, err
	}
	if shrunk == nil {
		// Unconditional Unsat: the core is empty.
		return nil, rep, nil
	}
	keep := make(map[int]bool, len(shrunk))
	for _, l := range shrunk {
		keep[l] = true
	}
	seen := make(map[logic.Term]bool)
	var out []logic.Term
	for i, l := range s.lastLits {
		// The clause holds negated assumptions.
		if keep[dimacsLit(l.Neg())] && !seen[s.lastAssumed[i]] {
			seen[s.lastAssumed[i]] = true
			out = append(out, s.lastAssumed[i])
		}
	}
	return out, rep, nil
}
