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

// seedSolverBuild declares the hole variables (in sorted order, for
// deterministic SAT variable numbering) and asserts the seed conjuncts.
func seedSolverBuild(holes map[string]*logic.Var, conjuncts []logic.Term) func(*smt.Solver) error {
	return func(s *smt.Solver) error {
		for _, v := range sortedHoleVars(holes) {
			if err := s.Declare(v); err != nil {
				return err
			}
		}
		return s.AssertAll(conjuncts)
	}
}

// buildSeedSolver builds a query-scoped seed solver over the simplified
// seed, step 3's normal form of the encoding, as the paper's Figure 6
// lifts it. Every seed solver in the pipeline comes from here.
//
// Under VerifyProofs it first links the simplified seed back to the
// raw one: a query-scoped raw-seed solver must find raw ∧ ¬simplified
// unsatisfiable, with a proof the independent checker accepts, before
// the raw solver is dropped. The raw seed then implies the simplified
// one, so every Unsat verdict the simplified solver returns also holds
// of the raw seed.
func (e *Explainer) buildSeedSolver(ctx context.Context, enc *synth.Encoding, simplified logic.Term) (*smt.Solver, func(), error) {
	if e.Opts.VerifyProofs {
		if err := e.checkSeedLink(ctx, enc, simplified); err != nil {
			return nil, nil, err
		}
	}
	return e.buildSolver(seedSolverBuild(enc.HoleVars, logic.Conjuncts(simplified)))
}

// checkSeedLink proves, with a checked proof, that the encoding's raw
// seed implies simplified. A Sat answer means simplification changed
// the seed's meaning; it is an error, as is a solve that cannot decide.
func (e *Explainer) checkSeedLink(ctx context.Context, enc *synth.Encoding, simplified logic.Term) error {
	raw, release, err := e.buildSolver(seedSolverBuild(enc.HoleVars, enc.Constraints))
	if err != nil {
		return err
	}
	defer release()
	st, err := raw.SolveContext(ctx, logic.Not(simplified))
	if err != nil {
		return err
	}
	switch st {
	case sat.Unsat:
		return e.verifyUnsat(raw)
	case sat.Sat:
		return fmt.Errorf("core: the raw seed does not imply the simplified seed")
	default:
		return fmt.Errorf("core: linking the simplified seed to the raw seed: solver returned %v", st)
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
	if testSolveHook != nil {
		testSolveHook(assume, st)
	}
	return st, err
}

// testSolveHook, when set by a test, sees every timed query's
// assumptions and verdict, in the order the queries ran.
var testSolveHook func(assume []logic.Term, st sat.Status)
