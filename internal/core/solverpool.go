package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/synth"
)

// Solver lifecycle plumbing for the explanation pipeline.
//
// Solvers are query-scoped: every solver the pipeline runs is built by
// buildSolver for one query family and dropped when the query returns.
// Independent query batches fan out across runChecks workers that each
// own warm clones of the prototypes. Each solver's work is harvested
// into the session statistics exactly once: a built solver's when it is
// released, a clone's (whose counters start zeroed) when its worker
// finishes.

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

// liftWorkers picks the worker count for n independent checks. Cloning
// a warm solver copies its whole clause database, so parallelism only
// pays once each worker has a batch of queries to amortize its clone;
// under two queries per worker the sweep shrinks or stays sequential.
func (e *Explainer) liftWorkers(n int) int {
	w := e.Opts.LiftWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w > 1 && n < 2*w {
		w = n / 2
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runChecks executes check(i) for every i in [0,n), fanning out across
// the lift worker pool when n is large enough to pay for it. protos
// are the prototype solvers: worker 0 borrows them directly (so their
// learnt clauses keep accumulating for later stages), every other
// worker gets warm clones — an smt.Solver is not concurrency-safe, so
// workers never share one. Candidates are dealt round-robin and check
// must write its result to an index-disjoint slot, which makes the
// combined outcome independent of the worker count and schedule.
func (e *Explainer) runChecks(ctx context.Context, n int, protos []*smt.Solver, check func(ctx context.Context, solvers []*smt.Solver, i int, lats *[]time.Duration) error) error {
	workers := e.liftWorkers(n)
	if workers <= 1 {
		var lats []time.Duration
		defer func() { e.addLiftQueries(lats) }()
		for i := 0; i < n; i++ {
			if err := check(ctx, protos, i, &lats); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, workers)
	// All clones are taken before any worker starts: cloning snapshots
	// the clause database, which must not happen while worker 0 is
	// already solving on the prototypes.
	perWorker := make([][]*smt.Solver, workers)
	perWorker[0] = protos
	for w := 1; w < workers; w++ {
		solvers := make([]*smt.Solver, len(protos))
		for i, p := range protos {
			solvers[i] = p.Clone()
		}
		perWorker[w] = solvers
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		solvers := perWorker[w]
		wg.Add(1)
		go func(w int, solvers []*smt.Solver) {
			defer wg.Done()
			if w > 0 {
				// Clones start with zeroed counters: their whole Stats
				// are this worker's work.
				defer func() {
					for _, s := range solvers {
						e.addSolverStats(s.Stats())
					}
				}()
			}
			var lats []time.Duration
			defer func() { e.addLiftQueries(lats) }()
			for i := w; i < n; i += workers {
				if err := check(ctx, solvers, i, &lats); err != nil {
					errs[w] = err
					cancel()
					return
				}
			}
		}(w, solvers)
	}
	wg.Wait()
	// Deterministic error selection: prefer the failure that triggered
	// the cancellation over the cancellations it caused.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil || (errors.Is(first, context.Canceled) && !errors.Is(err, context.Canceled)) {
			first = err
		}
	}
	return first
}
