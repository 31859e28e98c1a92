package smt

import (
	"context"
	"fmt"

	"repro/internal/logic"
	"repro/internal/sat"
)

// EnumerateModels invokes f for every model of the asserted
// constraints, projected onto the given variables, up to max models.
// Enumeration proceeds by blocking clauses, which are permanently
// added to the solver — a solver that has been enumerated should not
// be reused for other queries.
//
// f may return false to stop early. EnumerateModels returns the number
// of models visited and whether the projection was exhausted (false
// means max was hit or f stopped the walk).
func (s *Solver) EnumerateModels(vars []*logic.Var, max int, f func(logic.Assignment) bool) (int, bool, error) {
	return s.EnumerateModelsContext(context.Background(), vars, max, f)
}

// EnumerateModelsContext is EnumerateModels with cancellation: the
// context is checked before every model query, and threaded into each
// underlying solve, so a cancelled or expired context stops the walk
// promptly with the context's error.
func (s *Solver) EnumerateModelsContext(ctx context.Context, vars []*logic.Var, max int, f func(logic.Assignment) bool) (int, bool, error) {
	if len(vars) == 0 {
		return 0, true, fmt.Errorf("smt: EnumerateModels needs at least one variable")
	}
	for _, v := range vars {
		if err := s.Declare(v); err != nil {
			return 0, false, err
		}
	}
	count := 0
	for count < max {
		st, err := s.SolveContext(ctx)
		if err != nil {
			return count, false, err
		}
		if st == sat.Unsat {
			return count, true, nil
		}
		if st != sat.Sat {
			// Unknown comes only from a cancelled context, which
			// returned its error above. Should it ever come back
			// without one, it is still not exhaustion: claiming it was
			// would let a truncated walk masquerade as a complete one
			// (and, under proof verification, there would be no Unsat
			// verdict to check).
			return count, false, nil
		}
		full, err := s.Model()
		if err != nil {
			return count, false, err
		}
		projected := logic.Assignment{}
		blocking := make([]sat.Lit, 0, len(vars))
		for _, v := range vars {
			val, ok := full[v.Name]
			if !ok {
				return count, false, fmt.Errorf("smt: model misses %q", v.Name)
			}
			projected[v.Name] = val
			l, err := s.modelLit(v)
			if err != nil {
				return count, false, err
			}
			blocking = append(blocking, l.Neg())
		}
		count++
		if !f(projected) {
			return count, false, nil
		}
		// Block the model with one SAT-level clause over the variables'
		// already-encoded selector literals — no term construction and
		// no per-model Tseitin encoding. The clause is equivalent to
		// asserting Or(Ne(v, value)...) over the projection: each
		// selector literal is exactly "v takes its model value".
		s.sat.AddClause(blocking...)
	}
	return count, false, nil
}

// modelLit returns the already-encoded literal that is true exactly
// when the declared variable takes its value in the current model: the
// boolean variable's own literal (or its negation), or the value
// list's selector for the chosen value.
func (s *Solver) modelLit(v *logic.Var) (sat.Lit, error) {
	e, ok := s.enc[v.Name]
	if !ok {
		return 0, fmt.Errorf("smt: variable %q not declared", v.Name)
	}
	if v.S.IsBool() {
		if s.sat.ValueLit(e.boolLit) == sat.LTrue {
			return e.boolLit, nil
		}
		return e.boolLit.Neg(), nil
	}
	for _, l := range e.vl.lits {
		if s.sat.ValueLit(l) == sat.LTrue {
			return l, nil
		}
	}
	return 0, fmt.Errorf("smt: no value selected for %q in model", v.Name)
}

// CountModels counts the models projected onto vars, up to max.
func (s *Solver) CountModels(vars []*logic.Var, max int) (int, bool, error) {
	return s.EnumerateModels(vars, max, func(logic.Assignment) bool { return true })
}
