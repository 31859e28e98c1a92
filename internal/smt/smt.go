// Package smt decides formulas of the internal/logic term language by
// reduction to propositional satisfiability (internal/sat).
//
// The logic fragment emitted by the network synthesizer is finite
// domain: every integer variable carries an inclusive range and every
// enum variable ranges over a declared value set. The encoder therefore
// represents every non-boolean term as a "value list" — the finite set
// of values the term can take, each guarded by a propositional literal,
// with an exactly-one invariant — and bit-blasts boolean structure with
// the Tseitin transformation. This mirrors what Z3 ends up doing on
// NetComplete's encodings, at laptop scale and with zero dependencies.
//
// Usage:
//
//	s := smt.NewSolver()
//	s.Assert(f)                  // f : Bool-sorted logic.Term
//	st, err := s.Solve()         // Sat / Unsat
//	m, err := s.Model()          // logic.Assignment on Sat
//
// Solve accepts assumption terms, which hold for that solve only; with
// proof logging on, VerifyLastUnsat checks an Unsat verdict under them
// against the SAT-level core.
package smt

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/drat"
	"repro/internal/logic"
	"repro/internal/sat"
)

// MaxValueListSize caps the size of any value list the encoder will
// build: a variable's declared domain, or the values an ite merges from
// its branches. Hitting it is reported as an error rather than an OOM.
const MaxValueListSize = 1 << 14

// Solver encodes and decides logic terms.
type Solver struct {
	// sat is the SAT solver every clause is encoded into and every
	// search runs on.
	sat *sat.Solver

	// declared variables by name.
	vars map[string]*logic.Var
	enc  map[string]*varEncoding

	// Tseitin memo tables keyed by canonical term pointer (every term
	// entering the solver is interned in the default table): a memo
	// probe is one map lookup, with no structural hashing or
	// deep-equality scan.
	boolMemo map[logic.Term]sat.Lit
	valMemo  map[logic.Term]*valueList

	litTrue  sat.Lit // a literal constrained true
	litFalse sat.Lit

	// lastLits holds the last solve's assumption literals (a buffer
	// reused across solves).
	lastLits []sat.Lit

	// lastStatus remembers the outcome of the most recent solve so the
	// proof layer can refuse to "verify" a verdict that never happened.
	lastStatus sat.Status

	// chk incrementally re-validates the proof trace (see proof.go);
	// chkCursor is the trace position it has consumed up to. Lazily
	// built on first verification.
	chk       *drat.Checker
	chkCursor int

	// busy guards against overlapping SolveContext calls: a Solver is
	// not safe for concurrent use, and a solver reachable from two
	// goroutines is an easy bug to write and a hard one to see. The CAS
	// costs nothing per solve and turns a silent data race into a
	// deterministic panic.
	busy int32
}

// varEncoding is the propositional encoding of one declared variable.
type varEncoding struct {
	v *logic.Var
	// boolLit is set for Bool variables.
	boolLit sat.Lit
	// vl is set for Int and Enum variables.
	vl *valueList
}

// valueList represents a non-boolean term as its finite value set.
// Exactly one of lits is true in any model; vals[i] is the term's value
// when lits[i] holds. For enum-sorted terms vals holds value *indices*
// into the sort's Values slice.
type valueList struct {
	sort *logic.Sort
	vals []int64
	lits []sat.Lit
}

// Option configures a Solver at construction time.
type Option func(*Solver)

// WithProof attaches a DRAT-style proof trace to the underlying SAT
// solver. Every clause the encoder emits and every lemma the solver
// derives is recorded, so Unsat verdicts can be independently
// re-validated (VerifyLastUnsat). Logging must be requested at
// construction: the trace has to contain the very first clause, or the
// checker could not reproduce any derivation.
func WithProof() Option {
	return func(s *Solver) {
		if err := s.sat.SetProof(sat.NewTrace()); err != nil {
			// The solver is pristine here by construction.
			panic(err)
		}
	}
}

// NewSolver creates an empty solver.
func NewSolver(opts ...Option) *Solver {
	s := &Solver{
		sat:      sat.NewSolver(),
		vars:     make(map[string]*logic.Var),
		enc:      make(map[string]*varEncoding),
		boolMemo: make(map[logic.Term]sat.Lit),
		valMemo:  make(map[logic.Term]*valueList),
	}
	for _, o := range opts {
		o(s)
	}
	vt := s.sat.NewVar()
	s.litTrue = sat.PosLit(vt)
	s.litFalse = sat.NegLit(vt)
	s.sat.AddClause(s.litTrue)
	return s
}

// Stats exposes the underlying SAT solver statistics.
func (s *Solver) Stats() sat.Stats { return s.sat.Stats }

// NumSATVars reports how many propositional variables the encoding has
// allocated so far.
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// NumSATClauses reports how many propositional clauses the encoding
// has emitted so far.
func (s *Solver) NumSATClauses() int { return s.sat.NumClauses() }

// Declare registers a variable. Declaring is optional — variables are
// auto-declared on first use — but declaring up front makes Model
// include variables that appear in no asserted constraint. Redeclaring
// a name with a different sort or domain is an error.
func (s *Solver) Declare(v *logic.Var) error {
	if old, ok := s.vars[v.Name]; ok {
		if !logic.SameSort(old.S, v.S) || old.Lo != v.Lo || old.Hi != v.Hi {
			return fmt.Errorf("smt: variable %q redeclared with different sort or domain", v.Name)
		}
		return nil
	}
	s.vars[v.Name] = v
	e := &varEncoding{v: v}
	switch {
	case v.S.IsBool():
		e.boolLit = sat.PosLit(s.sat.NewVar())
	case v.S.IsInt():
		n := v.Hi - v.Lo + 1
		if n > MaxValueListSize {
			return fmt.Errorf("smt: domain of %q has %d values, exceeding the cap of %d", v.Name, n, MaxValueListSize)
		}
		vals := make([]int64, 0, n)
		for x := v.Lo; x <= v.Hi; x++ {
			vals = append(vals, x)
		}
		e.vl = s.freshValueList(logic.Int, vals)
	case v.S.IsEnum():
		vals := make([]int64, len(v.S.Values))
		for i := range vals {
			vals[i] = int64(i)
		}
		e.vl = s.freshValueList(v.S, vals)
	default:
		return fmt.Errorf("smt: variable %q has unsupported sort %v", v.Name, v.S)
	}
	s.enc[v.Name] = e
	return nil
}

// freshValueList allocates one selector literal per value and
// constrains exactly one of them to hold.
func (s *Solver) freshValueList(sort *logic.Sort, vals []int64) *valueList {
	lits := make([]sat.Lit, len(vals))
	for i := range lits {
		lits[i] = sat.PosLit(s.sat.NewVar())
	}
	s.exactlyOne(lits)
	return &valueList{sort: sort, vals: vals, lits: lits}
}

// exactlyOne emits at-least-one and at-most-one constraints. AMO uses
// the pairwise encoding below 6 literals and the sequential (ladder)
// encoding above, which stays linear in clauses and auxiliaries.
func (s *Solver) exactlyOne(lits []sat.Lit) {
	s.sat.AddClause(lits...)
	s.atMostOne(lits)
}

func (s *Solver) atMostOne(lits []sat.Lit) {
	if len(lits) <= 1 {
		return
	}
	if len(lits) <= 6 {
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				s.sat.AddClause(lits[i].Neg(), lits[j].Neg())
			}
		}
		return
	}
	// Sequential encoding: aux[i] means "some lit among 0..i is true".
	aux := make([]sat.Lit, len(lits)-1)
	for i := range aux {
		aux[i] = sat.PosLit(s.sat.NewVar())
	}
	s.sat.AddClause(lits[0].Neg(), aux[0])
	for i := 1; i < len(lits)-1; i++ {
		s.sat.AddClause(lits[i].Neg(), aux[i])
		s.sat.AddClause(aux[i-1].Neg(), aux[i])
		s.sat.AddClause(lits[i].Neg(), aux[i-1].Neg())
	}
	s.sat.AddClause(lits[len(lits)-1].Neg(), aux[len(lits)-2].Neg())
}

// Assert adds a Bool-sorted constraint to the solver.
func (s *Solver) Assert(t logic.Term) error {
	if !t.Sort().IsBool() {
		return fmt.Errorf("smt: asserting term of sort %v", t.Sort())
	}
	l, err := s.litOf(t)
	if err != nil {
		return err
	}
	s.sat.AddClause(l)
	return nil
}

// AssertAll asserts every term.
func (s *Solver) AssertAll(ts []logic.Term) error {
	for _, t := range ts {
		if err := s.Assert(t); err != nil {
			return err
		}
	}
	return nil
}

// Solve decides the asserted constraints under the given assumption
// terms.
func (s *Solver) Solve(assumptions ...logic.Term) (sat.Status, error) {
	return s.SolveContext(context.Background(), assumptions...)
}

// SolveContext is Solve with cancellation: the context is threaded
// into the underlying SAT search, so a cancelled or expired context
// aborts a running solve promptly. On cancellation the status is
// Unknown and the error is the context's error.
//
// A Solver is not safe for concurrent use: overlapping SolveContext
// calls panic deterministically rather than racing (build one solver
// per goroutine instead).
func (s *Solver) SolveContext(ctx context.Context, assumptions ...logic.Term) (sat.Status, error) {
	if !atomic.CompareAndSwapInt32(&s.busy, 0, 1) {
		panic("smt: overlapping SolveContext calls on one Solver; a Solver is not concurrency-safe — build one per goroutine")
	}
	defer atomic.StoreInt32(&s.busy, 0)
	s.lastLits = s.lastLits[:0]
	// Reset the recorded verdict before anything can fail: an early
	// error return below must not leave a stale Unsat from a previous
	// solve paired with the new (inconsistent) assumption state, where
	// VerifyLastUnsat would mis-attribute the old verdict.
	s.lastStatus = sat.Unknown
	for _, a := range assumptions {
		if !a.Sort().IsBool() {
			return sat.Unknown, fmt.Errorf("smt: assumption of sort %v", a.Sort())
		}
		l, err := s.litOf(a)
		if err != nil {
			return sat.Unknown, err
		}
		s.lastLits = append(s.lastLits, l)
	}
	st, err := s.sat.SolveContext(ctx, s.lastLits...)
	s.lastStatus = st
	return st, err
}

// Model extracts an assignment for every declared variable. Call only
// after Solve returned Sat.
func (s *Solver) Model() (logic.Assignment, error) {
	m := logic.Assignment{}
	for name, e := range s.enc {
		val, err := s.value(e)
		if err != nil {
			return nil, err
		}
		m[name] = val
	}
	return m, nil
}

// Value returns one declared variable's value in the current model,
// reading only that variable's literals. Call only after Solve returned
// Sat.
func (s *Solver) Value(v *logic.Var) (logic.Value, error) {
	e, ok := s.enc[v.Name]
	if !ok {
		return logic.Value{}, fmt.Errorf("smt: variable %q not declared", v.Name)
	}
	return s.value(e)
}

func (s *Solver) value(e *varEncoding) (logic.Value, error) {
	v := e.v
	if v.S.IsBool() {
		return logic.BoolValue(s.sat.ValueLit(e.boolLit) == sat.LTrue), nil
	}
	for i, l := range e.vl.lits {
		if s.sat.ValueLit(l) == sat.LTrue {
			if v.S.IsInt() {
				return logic.IntValue(e.vl.vals[i]), nil
			}
			return logic.EnumValue(v.S, v.S.Values[e.vl.vals[i]]), nil
		}
	}
	return logic.Value{}, fmt.Errorf("smt: no value selected for %q in model", v.Name)
}
