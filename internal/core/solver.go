package core

import (
	"context"
	"fmt"
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
	e.Session.AddProofStats(rep)
	return nil
}

// buildSolver builds an SMT solver with — under VerifyProofs — a proof
// trace attached (logging must start before the first clause, so this
// is the only place it can be turned on), then applies build to it. The
// caller owns the solver for the rest of its query and calls release
// when done, which folds the solver's work into the session statistics;
// the solver is garbage afterwards. A repeat report does not need it:
// the report cache answers every section it rendered before.
func (e *Explainer) buildSolver(build func(*smt.Solver) error) (*smt.Solver, func(), error) {
	var opts []smt.Option
	if e.Opts.VerifyProofs {
		opts = append(opts, smt.WithProof())
	}
	sv := smt.NewSolver(opts...)
	if err := build(sv); err != nil {
		e.Session.AddSolverStats(sv.Stats())
		return nil, nil, err
	}
	return sv, func() { e.Session.AddSolverStats(sv.Stats()) }, nil
}

// seedSolverBuild declares the hole variables (in sorted order, for
// deterministic SAT variable numbering) and asserts the seed conjuncts.
func seedSolverBuild(enc *synth.Encoding, conjuncts []logic.Term) func(*smt.Solver) error {
	return func(s *smt.Solver) error {
		for _, v := range enc.HoleVarsByName() {
			if err := s.Declare(v); err != nil {
				return err
			}
		}
		return s.AssertAll(conjuncts)
	}
}

// buildSeedSolver builds a query-scoped seed solver over the simplified
// seed, step 3's normal form of the encoding, as the paper's Figure 6
// lifts it, and returns the conjuncts it asserts. Every seed solver in
// the pipeline comes from here. query lists the terms the caller will
// assume (or their negations); the solver leaves out the conjuncts
// seedConjuncts trims against them.
//
// Under VerifyProofs it first links the simplified seed back to the
// raw one: a query-scoped raw-seed solver must find raw ∧ ¬simplified
// unsatisfiable, with a proof the independent checker accepts, before
// the raw solver is dropped. The raw seed then implies the simplified
// one, and so the conjuncts the solver keeps, so every Unsat verdict
// the solver returns also holds of the raw seed.
func (e *Explainer) buildSeedSolver(ctx context.Context, enc *synth.Encoding, simplified logic.Term, query []logic.Term) (*smt.Solver, []logic.Term, func(), error) {
	if e.Opts.VerifyProofs {
		if err := e.checkSeedLink(ctx, enc, simplified); err != nil {
			return nil, nil, nil, err
		}
	}
	conjuncts := seedConjuncts(simplified, enc.HoleVars, query)
	if testSeedHook != nil {
		conjuncts = testSeedHook(simplified, conjuncts)
	}
	s, release, err := e.buildSolver(seedSolverBuild(enc, conjuncts))
	return s, conjuncts, release, err
}

// seedConjuncts returns the conjuncts a seed solver asserts: those of
// the simplified seed, less every lone literal (a boolean variable or
// its negation) over a variable that no other conjunct, no hole and no
// query term mentions. Such a literal is satisfiable on its own and
// shares no variable with the rest, so any model of the rest, with any
// assumption over the holes and query terms, extends to it: no verdict
// changes. A whole-network encoding leaves many of them — selection
// variables the simplifier settled — and they are most of a large
// fabric's simplified seed.
func seedConjuncts(simplified logic.Term, holes map[string]*logic.Var, query []logic.Term) []logic.Term {
	conjuncts := logic.Conjuncts(simplified)
	// lone counts the literal conjuncts over each variable; a variable
	// found mentioned elsewhere is removed.
	lone := map[string]int{}
	for _, c := range conjuncts {
		if v := literalVar(c); v != nil {
			lone[v.Name]++
		}
	}
	if len(lone) == 0 {
		return conjuncts
	}
	for name := range holes {
		delete(lone, name)
	}
	seen := map[*logic.Apply]bool{}
	var mention func(t logic.Term)
	mention = func(t logic.Term) {
		switch n := t.(type) {
		case *logic.Var:
			delete(lone, n.Name)
		case *logic.Apply:
			if !seen[n] {
				seen[n] = true
				for _, a := range n.Args {
					mention(a)
				}
			}
		}
	}
	for _, c := range conjuncts {
		if literalVar(c) == nil {
			mention(c)
		}
	}
	for _, q := range query {
		mention(q)
	}
	kept := conjuncts[:0]
	for _, c := range conjuncts {
		if v := literalVar(c); v == nil || lone[v.Name] != 1 {
			kept = append(kept, c)
		}
	}
	return kept
}

// literalVar returns the boolean variable of a literal term, v or !v,
// and nil for any other term.
func literalVar(t logic.Term) *logic.Var {
	if a, ok := t.(*logic.Apply); ok && a.Op == logic.OpNot {
		t = a.Args[0]
	}
	if v, ok := t.(*logic.Var); ok && v.S.IsBool() {
		return v
	}
	return nil
}

// checkSeedLink proves, with a checked proof, that the encoding's raw
// seed implies simplified. A Sat answer means simplification changed
// the seed's meaning; it is an error, as is a solve that cannot decide.
func (e *Explainer) checkSeedLink(ctx context.Context, enc *synth.Encoding, simplified logic.Term) error {
	raw, release, err := e.buildSolver(seedSolverBuild(enc, enc.Constraints))
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

// testSeedHook, when set by a test, sees each seed solver's simplified
// seed and the conjuncts seedConjuncts kept, and returns the conjuncts
// the solver asserts instead.
var testSeedHook func(simplified logic.Term, kept []logic.Term) []logic.Term
