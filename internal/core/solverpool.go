package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/synth"
)

// Solver lifecycle plumbing for the explanation pipeline.
//
// Solvers are query-scoped: every solver the pipeline runs is built by
// buildSolver for one query family, driven by one goroutine, and
// dropped when the query returns. Its work is harvested into the
// session statistics exactly once, when it is released. Parallelism
// lives one level up, in the report stream's router pool.

// verifyUnsat re-validates the solver's most recent Unsat verdict with
// the independent DRAT checker when proof verification is on, folding
// the checker's effort into the session statistics. Call it at every
// site that is about to rely on an Unsat answer; a proof the checker
// rejects surfaces as an error, so no unverified verdict reaches a
// report.
func (e *Explainer) verifyUnsat(s *smt.Solver) error {
	if !e.Opts.VerifyProofs {
		return nil
	}
	rep, err := s.VerifyLastUnsat()
	if err != nil {
		return fmt.Errorf("core: unsat verdict failed proof check: %w", err)
	}
	if e.Session != nil {
		e.Session.AddProofStats(rep)
	}
	return nil
}

// buildSolver builds an SMT solver with the explainer's conflict budget
// applied, the session's shared term table adopted, and — under
// VerifyProofs — a proof trace attached (logging must start before the
// first clause, so this is the only place it can be turned on), then
// applies build to it. The caller owns the solver for the rest of its
// query and calls release when done, which folds the solver's work into
// the session statistics; the solver is garbage afterwards. A repeat
// query does not need it: the report cache answers a repeat lift with a
// splice instead.
func (e *Explainer) buildSolver(build func(*smt.Solver) error) (*smt.Solver, func(), error) {
	var opts []smt.Option
	if e.Opts.VerifyProofs {
		opts = append(opts, smt.WithProof())
	}
	sv := smt.NewSolver(opts...)
	if e.Session != nil {
		sv.UseInterner(e.Session.Interner())
	}
	if e.Opts.Budget.MaxConflicts > 0 {
		sv.SetConflictBudget(e.Opts.Budget.MaxConflicts)
	}
	if err := build(sv); err != nil {
		e.addSolverStats(sv.Stats())
		return nil, nil, err
	}
	return sv, func() { e.addSolverStats(sv.Stats()) }, nil
}

// seedSolverBuild declares the encoding's hole variables (in sorted
// order, for deterministic SAT variable numbering) and asserts the
// seed constraints.
func seedSolverBuild(enc *synth.Encoding) func(*smt.Solver) error {
	return func(s *smt.Solver) error {
		for _, v := range sortedHoleVars(enc.HoleVars) {
			if err := s.Declare(v); err != nil {
				return err
			}
		}
		return s.AssertAll(enc.Constraints)
	}
}

func sortedHoleVars(m map[string]*logic.Var) []*logic.Var {
	out := make([]*logic.Var, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// addLiftQueries records per-query lift latencies in the session.
func (e *Explainer) addLiftQueries(ds []time.Duration) {
	if e.Session != nil {
		e.Session.AddLiftQueries(ds)
	}
}

// timedSolve runs one SMT query and records its latency.
func timedSolve(ctx context.Context, s *smt.Solver, lats *[]time.Duration, assume ...logic.Term) (sat.Status, error) {
	start := time.Now()
	st, err := s.SolveContext(ctx, assume...)
	*lats = append(*lats, time.Since(start))
	return st, err
}
