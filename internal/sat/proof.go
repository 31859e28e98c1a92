package sat

import "fmt"

// Proof logging.
//
// Every localized-explanation verdict the pipeline emits ultimately
// rests on an Unsat answer from this solver, so the solver can record a
// DRAT-style derivation trace that an independent checker
// (internal/drat) re-validates by reverse unit propagation: each learnt
// clause must be a RUP consequence of the clauses that preceded it, and
// the final lemma — the empty clause, or the negation of the assumption
// core — certifies the verdict itself.
//
// The trace records three kinds of operations, in solver order:
//
//   - ProofInput: a clause handed to AddClause, exactly as given
//     (before any simplification). The inputs are the formula the
//     verdict is about.
//   - ProofLearn: a clause the solver derived — a 1UIP learnt clause
//     (including learnt units, which the solver itself keeps only on
//     the trail), the empty clause on a top-level conflict, or the
//     negated assumption core on an Unsat-under-assumptions answer.
//   - ProofDelete: a learnt clause dropped by reduceDB, so the checker
//     can keep its clause database as small as the solver's.
//
// Logging is observation only: it never changes the search, so an
// explanation run is byte-identical with and without a proof attached.

// ProofOpKind discriminates trace operations.
type ProofOpKind uint8

const (
	// ProofInput records a caller-added clause (pre-simplification).
	ProofInput ProofOpKind = iota
	// ProofLearn records a clause derived by the solver.
	ProofLearn
	// ProofDelete records a learnt clause deleted by reduceDB.
	ProofDelete
)

// String names the operation kind.
func (k ProofOpKind) String() string {
	switch k {
	case ProofInput:
		return "input"
	case ProofLearn:
		return "learn"
	default:
		return "delete"
	}
}

// ProofOp is one trace operation. Lits is owned by the trace and must
// not be mutated.
type ProofOp struct {
	Kind ProofOpKind
	Lits []Lit
}

// Trace is an append-only log of proof operations. A Trace is not safe
// for concurrent use (it is driven by exactly one solver, which itself
// is single-threaded).
type Trace struct {
	ops []ProofOp
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// add records one operation, copying lits: the solver may pass scratch
// slices.
func (t *Trace) add(kind ProofOpKind, lits []Lit) {
	cp := make([]Lit, len(lits))
	copy(cp, lits)
	t.ops = append(t.ops, ProofOp{Kind: kind, Lits: cp})
}

// Len reports how many operations have been recorded.
func (t *Trace) Len() int { return len(t.ops) }

// Op returns the i-th recorded operation. The returned Lits slice is
// owned by the trace.
func (t *Trace) Op(i int) ProofOp { return t.ops[i] }

// SetProof attaches a proof trace to the solver. It must be called on
// a pristine solver — before any clause is added — because the trace
// must contain every input clause for the checker to reproduce the
// solver's derivations; attaching mid-life would leave the checker
// blind to the clauses already in the database.
func (s *Solver) SetProof(t *Trace) error {
	if len(s.clauses) > 0 || len(s.learnts) > 0 || len(s.trail) > 0 || !s.ok {
		return fmt.Errorf("sat: SetProof on a solver that already holds clauses")
	}
	s.proof = t
	return nil
}

// Proof returns the attached proof trace (nil when logging is off).
func (s *Solver) Proof() *Trace { return s.proof }

// logProof records one operation in the attached trace.
func (s *Solver) logProof(kind ProofOpKind, lits []Lit) {
	if s.proof != nil {
		s.proof.add(kind, lits)
	}
}

// logEmptyClause records the final empty-clause lemma exactly once:
// several paths can discover top-level unsatisfiability (AddClause
// simplification, top-level propagation, a level-0 conflict in search)
// and re-deriving the same verdict must not duplicate the terminal
// step.
func (s *Solver) logEmptyClause() {
	if s.proof == nil || s.emptyLogged {
		return
	}
	s.emptyLogged = true
	s.proof.add(ProofLearn, nil)
}
