// Solver reuse: guarded (retractable) assertions and warm clones.
//
// The explanation pipeline issues dozens of near-identical queries per
// router — vacuity, necessity, sufficiency — over one seed encoding.
// Rebuilding a solver per query throws away the Tseitin encoding,
// learnt clauses, saved phases, and branching activity every time.
// The two primitives here let one solver serve a whole query family:
//
//   - AssertGuarded/Retract scope a constraint to part of a solver's
//     lifetime without ever deleting clauses, so everything the solver
//     learns stays sound.
//   - Clone snapshots a warm solver so each worker of a parallel
//     candidate sweep starts with the shared state instead of cold.
package smt

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/sat"
)

// Guard names one retractable assertion. Guards are handed out by
// AssertGuarded and are only meaningful on the solver (or clones of
// the solver) that issued them.
type Guard struct {
	lit sat.Lit
}

// AssertGuarded adds the Bool-sorted constraint t under a fresh guard:
// the emitted clause is (guard -> t), and the guard literal is assumed
// by every Solve until Retract is called, so the constraint is in
// force exactly like a plain Assert — but removably.
//
// Because retraction asserts the guard's negation instead of deleting
// the clause, the clause database only ever grows; every clause the
// solver learns while the guard is active remains a consequence of
// the database and stays sound after retraction. This is what makes
// it safe to keep one warm solver across query families that need
// temporary constraints (the lift stage's sufficiency enumeration).
func (s *Solver) AssertGuarded(t logic.Term) (Guard, error) {
	if !t.Sort().IsBool() {
		return Guard{}, fmt.Errorf("smt: asserting term of sort %v", t.Sort())
	}
	l, err := s.litOf(t)
	if err != nil {
		return Guard{}, err
	}
	g := sat.PosLit(s.sat.NewVar())
	s.sat.AddClause(g.Neg(), l)
	s.guards = append(s.guards, g)
	return Guard{lit: g}, nil
}

// Retract permanently disables a guarded assertion: the guard's
// negation is asserted (satisfying the guarded clause forever) and the
// guard stops being assumed. Retracting a guard that is not active is
// a no-op beyond the unit assertion, so retracting twice is harmless.
func (s *Solver) Retract(g Guard) {
	s.sat.AddClause(g.lit.Neg())
	for i, l := range s.guards {
		if l == g.lit {
			s.guards = append(s.guards[:i], s.guards[i+1:]...)
			break
		}
	}
}

// ActiveGuards reports how many guarded assertions are currently in
// force.
func (s *Solver) ActiveGuards() int { return len(s.guards) }

// Clone returns a warm, independent copy of the solver: the underlying
// SAT state (problem clauses, learnt clauses, activity, phases) is
// snapshotted via sat.Solver.Clone, and the encoding layer — declared
// variables, Tseitin memo tables, active guards — is carried over so
// the clone answers repeat queries without re-encoding anything.
//
// The variable encodings and value lists are shared by pointer: they
// are immutable after construction, and the literals they hold are
// valid in the cloned SAT solver because cloning preserves variable
// numbering. The interner is shared too (it is concurrency-safe).
// Everything mutable is copied, so original and clone may afterwards
// be driven by different goroutines — each individually still being
// non-concurrency-safe.
func (s *Solver) Clone() *Solver {
	c := &Solver{
		sat:      s.sat.Clone(),
		in:       s.in,
		vars:     make(map[string]*logic.Var, len(s.vars)),
		enc:      make(map[string]*varEncoding, len(s.enc)),
		boolMemo: make(map[logic.Term]sat.Lit, len(s.boolMemo)),
		valMemo:  make(map[logic.Term]*valueList, len(s.valMemo)),
		litTrue:  s.litTrue,
		litFalse: s.litFalse,
		asserted: append([]logic.Term(nil), s.asserted...),
		guards:   append([]sat.Lit(nil), s.guards...),
	}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	for k, v := range s.enc {
		c.enc[k] = v
	}
	for k, v := range s.boolMemo {
		c.boolMemo[k] = v
	}
	for k, v := range s.valMemo {
		c.valMemo[k] = v
	}
	return c
}
