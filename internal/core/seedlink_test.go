package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/sat"
	"repro/internal/scenarios"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// differentialWorkload is one deployment the raw-seed differential
// explains router by router.
type differentialWorkload struct {
	name  string
	net   *topology.Network
	reqs  []spec.Requirement
	dep   config.Deployment
	synth synth.Options
}

// differentialWorkloads lists every lifted workload: the paper's
// scenarios and their seeded Perturb variants, the `netbench -table
// sat` presets, and the netgen seeds of
// TestSubspecRoundTripAcrossWorkloads.
func differentialWorkloads(t *testing.T) []differentialWorkload {
	t.Helper()
	var out []differentialWorkload
	for _, sc := range scenarios.All() {
		dep := synthScenario(t, sc)
		out = append(out, differentialWorkload{sc.Name, sc.Net, sc.Requirements(), dep, synth.DefaultOptions()})
		for seed := int64(1); seed <= 3; seed++ {
			edited, edits := netgen.Perturb(dep, seed, 2)
			if len(edits) == 0 {
				t.Fatalf("%s seed %d: no edit sites", sc.Name, seed)
			}
			name := fmt.Sprintf("%s_perturb%d", sc.Name, seed)
			out = append(out, differentialWorkload{name, sc.Net, sc.Requirements(), edited, synth.DefaultOptions()})
		}
	}

	sopts := synth.DefaultOptions()
	sopts.MaxPathLen = 7
	sopts.MaxCandidatesPerNode = 8
	var wls []*netgen.Workload
	for _, gen := range []func() (*netgen.Workload, error){
		func() (*netgen.Workload, error) { return netgen.Grid(4, 4, false) },
		func() (*netgen.Workload, error) { return netgen.FatTree(4, false) },
		func() (*netgen.Workload, error) { return netgen.Random(24, 3.0, 42, false) },
	} {
		wl, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	presets := len(wls)
	for seed := int64(1); seed <= 6; seed++ {
		wl, err := netgen.Random(5+int(seed%4), 2.5, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	for i, wl := range wls {
		res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), sopts)
		if err != nil {
			if i < presets {
				t.Fatalf("synthesize %s: %v", wl.Name, err)
			}
			continue // a genuinely unsatisfiable random instance
		}
		out = append(out, differentialWorkload{wl.Name, wl.Net, wl.Requirements(), res.Deployment, sopts})
	}
	return out
}

// solveRecord is one timed query of a lift: its assumptions and verdict.
type solveRecord struct {
	assume []logic.Term
	st     sat.Status
}

// liftRun is one lift's outcome with every timed query it ran and the
// conjuncts its seed solver asserted.
type liftRun struct {
	block    string
	complete bool
	err      error
	solves   []solveRecord
	seed     []logic.Term
}

// recordSolves runs f and returns every timed query it ran, in order.
func recordSolves(f func()) []solveRecord {
	var solves []solveRecord
	testSolveHook = func(assume []logic.Term, st sat.Status) {
		solves = append(solves, solveRecord{assume, st})
	}
	defer func() { testSolveHook = nil }()
	f()
	return solves
}

// runLift lifts the explanation's router, recording every timed query
// and the seed solver's conjuncts (after any testSeedHook).
func runLift(e *Explainer, enc *synth.Encoding, ex *Explanation) liftRun {
	var run liftRun
	prev := testSeedHook
	testSeedHook = func(simplified logic.Term, kept []logic.Term) []logic.Term {
		if prev != nil {
			kept = prev(simplified, kept)
		}
		run.seed = kept
		return kept
	}
	defer func() { testSeedHook = prev }()
	run.solves = recordSolves(func() {
		block, complete, err := e.lift(context.Background(), ex.Router, enc, ex, enc.PathInfosThrough(ex.Router))
		run.err = err
		if err == nil {
			run.block = spec.PrintBlock(block)
			run.complete = complete
		}
	})
	return run
}

// TestLiftVerdictsMatchRawSeed is the soundness evidence for lifting
// from the simplified seed. Each router's lift runs twice: as shipped,
// on step 3's normal form, and with Simplified set to the raw
// conjunction, which makes it the raw-seed reference. Each candidate's
// vacuity and necessity query must return the same verdict, in order,
// the block and the sufficiency verdict must match, and each
// sufficiency witness must extend to no model of the other seed (see
// sameLift). ExplainComplement's Satisfiable must match a raw-seed
// solver too.
func TestLiftVerdictsMatchRawSeed(t *testing.T) {
	var sats, unsats int
	for _, w := range differentialWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Synth = w.synth
			opts.Lift = false // each lift below runs by hand
			e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, router := range e.reportRouters() {
				ex, err := e.explainAll(ctx, router)
				if err != nil {
					t.Fatalf("%s: %v", router, err)
				}
				enc := seedEncoding(t, e, router, ex.Targets)
				ref := *ex
				ref.Simplified = enc.Conjunction()
				got := runLift(e, enc, ex)
				sameLift(t, router+" against the raw-seed reference", got, runLift(e, enc, &ref))
				for _, g := range got.solves {
					switch g.st {
					case sat.Sat:
						sats++
					case sat.Unsat:
						unsats++
					}
				}
				compareComplement(t, e, router)
			}
		})
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("the differential saw %d Sat and %d Unsat lift verdicts; want both", sats, unsats)
	}
}

// candidateBlock returns the router's lift candidates that name a
// candidate route of its seed encoding, as one block, with their clause
// terms over that encoding's paths.
func candidateBlock(t *testing.T, e *Explainer, enc *synth.Encoding, router string) (*spec.Block, []logic.Term) {
	t.Helper()
	holeNames := map[string]bool{}
	for n := range enc.HoleVars {
		holeNames[n] = true
	}
	cands, err := e.liftCandidates(router, enc.PathInfosThrough(router), holeNames)
	if err != nil {
		t.Fatal(err)
	}
	infos := enc.PathInfos()
	block := &spec.Block{Name: router}
	var terms []logic.Term
	for _, c := range cands {
		if term, err := e.clauseTerm(infos, router, c.req); err == nil {
			block.Reqs = append(block.Reqs, c.req)
			terms = append(terms, term)
		}
	}
	return block, terms
}

// compareComplement checks ExplainComplement's Satisfiable verdict
// against a raw-seed solver over the same complement encoding.
func compareComplement(t *testing.T, e *Explainer, router string) {
	t.Helper()
	comp, err := e.ExplainComplement(router)
	if err != nil {
		t.Fatalf("%s: ExplainComplement: %v", router, err)
	}
	enc, _, err := e.encodeComplement(context.Background(), router)
	if err != nil {
		t.Fatal(err)
	}
	raw, release, err := e.buildSolver(seedSolverBuild(enc, enc.Constraints))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	st, err := raw.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if want := st == sat.Sat; comp.Satisfiable != want {
		t.Errorf("%s: complement Satisfiable=%t, raw seed says %t", router, comp.Satisfiable, want)
	}
}

// TestSeedSolverTrimMatchesReference is the evidence for trimming the
// seed solvers (seedConjuncts). Each router's lift and ExplainComplement
// run twice: as shipped, and against a reference seed solver that
// asserts every simplified conjunct. Each lift's vacuity and necessity
// queries must assume the same terms and return the same verdict, in
// the same order; the block, the sufficiency verdict and the
// complement's Satisfiable must match, and each sufficiency witness
// must extend to no model of the other seed (see sameLift). The lift also
// runs both ways from the raw conjunction, whose literals other
// conjuncts still mention (the simplified seed has propagated its own
// away). The shipped solvers must have dropped literals, or the test
// would compare the reference with itself.
func TestSeedSolverTrimMatchesReference(t *testing.T) {
	dropped := 0
	trimmed := func(simplified logic.Term, kept []logic.Term) []logic.Term {
		dropped += len(logic.Conjuncts(simplified)) - len(kept)
		return kept
	}
	reference := func(simplified logic.Term, _ []logic.Term) []logic.Term {
		return logic.Conjuncts(simplified)
	}
	defer func() { testSeedHook = nil }()
	fabric := whatifFabric(t)
	for _, w := range append(differentialWorkloads(t), fabric) {
		t.Run(w.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Synth = w.synth
			opts.Lift = false // each lift below runs by hand
			e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, router := range e.reportRouters() {
				ex, err := e.explainAll(ctx, router)
				if err != nil {
					t.Fatalf("%s: %v", router, err)
				}
				enc := seedEncoding(t, e, router, ex.Targets)
				// runs is one pass over the router's seed solvers: the
				// lift and the complement.
				type runs struct {
					lift      liftRun
					satisfied bool
				}
				run := func(hook func(logic.Term, []logic.Term) []logic.Term) runs {
					testSeedHook = hook
					defer func() { testSeedHook = nil }()
					r := runs{lift: runLift(e, enc, ex)}
					if w.name != fabric.name {
						comp, err := e.ExplainComplement(router)
						if err != nil {
							t.Fatalf("%s: ExplainComplement: %v", router, err)
						}
						r.satisfied = comp.Satisfiable
					}
					return r
				}
				got, want := run(trimmed), run(reference)
				sameLift(t, router, got.lift, want.lift)
				if got.satisfied != want.satisfied {
					t.Errorf("%s: complement Satisfiable=%t, reference %t", router, got.satisfied, want.satisfied)
				}

				raw := *ex
				raw.Simplified = enc.Conjunction()
				testSeedHook = trimmed
				gotRaw := runLift(e, enc, &raw)
				testSeedHook = reference
				wantRaw := runLift(e, enc, &raw)
				testSeedHook = nil
				sameLift(t, router+" from the raw seed", gotRaw, wantRaw)
			}
		})
	}
	if dropped == 0 {
		t.Fatal("no seed solver dropped a literal")
	}
	t.Logf("the seed solvers dropped %d literals", dropped)
}

// sameLift requires two lifts to agree on their outcome and on every
// vacuity and necessity query, in order. The two seeds give different
// models, so the sufficiency checks may refine through different rounds:
// only their verdicts must match, and each witness must extend to no
// model of the other lift's seed either.
func sameLift(t *testing.T, label string, got, want liftRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: lift error %v, reference error %v", label, got.err, want.err)
	}
	if got.block != want.block || got.complete != want.complete {
		t.Errorf("%s: lifted\n%s(complete %t), reference\n%s(complete %t)",
			label, got.block, got.complete, want.block, want.complete)
	}
	gotChecks, gotWitness := got.split(t, label)
	wantChecks, wantWitness := want.split(t, label+" reference")
	sameSolves(t, label+" lift", gotChecks, wantChecks)
	for _, c := range []struct {
		label         string
		witness, seed []logic.Term
	}{{label, gotWitness, want.seed}, {label + " reference", wantWitness, got.seed}} {
		if c.witness == nil {
			continue
		}
		s := smt.NewSolver()
		if err := s.AssertAll(c.seed); err != nil {
			t.Fatal(err)
		}
		if st, err := s.Solve(c.witness...); err != nil || st != sat.Unsat {
			t.Errorf("%s: witness %v is %v (err %v) on the other seed, want Unsat", c.label, c.witness, st, err)
		}
	}
}

// split divides the lift's queries at the sufficiency check's first,
// the abstraction's solve, which alone assumes nothing. It returns the
// vacuity and necessity queries before it and, for an insufficient
// block, the witness the check's last query assumed.
func (r liftRun) split(t *testing.T, label string) (checks []solveRecord, witness []logic.Term) {
	t.Helper()
	k := 0
	for k < len(r.solves) && len(r.solves[k].assume) > 0 {
		k++
	}
	if k == len(r.solves) || r.complete {
		return r.solves[:k], nil
	}
	last := r.solves[len(r.solves)-1]
	if last.st != sat.Unsat || len(last.assume) == 0 {
		t.Fatalf("%s: insufficient block, but the check ended with %v assuming %v", label, last.st, last.assume)
	}
	return r.solves[:k], last.assume
}

// TestSeedConjunctsKeepsSharedLiterals drives each rule of
// seedConjuncts: a literal is dropped only when nothing else the solver
// holds or is asked mentions its variable.
func TestSeedConjunctsKeepsSharedLiterals(t *testing.T) {
	b := func(name string) *logic.Var { return logic.NewBoolVar("trim_" + name) }
	lone, other, hole, asked, twice := b("lone"), b("other"), b("hole"), b("asked"), b("twice")
	x := logic.NewIntVar("trim_x", 0, 3)
	seed := logic.And(
		lone,             // dropped
		logic.Not(other), // kept: the disjunction mentions it
		logic.Or(other, logic.Eq(x, logic.NewInt(1))),
		hole,                    // kept: a hole
		logic.Not(asked),        // kept: a query term mentions it
		twice, logic.Not(twice), // kept: the seed is unsatisfiable with them
		logic.Eq(x, logic.NewInt(2)), // kept: not a literal
	)
	holes := map[string]*logic.Var{hole.Name: hole, x.Name: x}
	query := []logic.Term{logic.Or(asked, logic.Eq(x, logic.NewInt(3)))}
	got := seedConjuncts(seed, holes, query)
	want := logic.Conjuncts(seed)[1:]
	if !sameTerms(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
}

// sameSolves requires two query sequences to assume the same terms and
// return the same verdicts, in order.
func sameSolves(t *testing.T, label string, got, want []solveRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, reference %d", label, len(got), len(want))
	}
	for i, g := range got {
		r := want[i]
		if g.st != r.st || !sameTerms(g.assume, r.assume) {
			t.Errorf("%s: query %d assuming %v: %v, reference %v assuming %v", label, i, g.assume, g.st, r.st, r.assume)
		}
	}
}

// sameTerms reports whether two assumption lists are the same terms
// (hash-consed, so pointer-equal) in the same order.
func sameTerms(a, b []logic.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeedLinkRejectsUnimpliedSimplified pins the proof-checked link
// from the simplified seed back to the raw one. Under VerifyProofs the
// real simplified seed links, with one more checked proof; a
// "simplified" seed that pins a hole to a value the raw seed lets it
// avoid is not implied by the raw seed, and building a seed solver from
// it must fail.
func TestSeedLinkRejectsUnimpliedSimplified(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	opts := DefaultOptions()
	opts.VerifyProofs = true
	e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const router = "R1"
	enc := seedEncoding(t, e, router, AllTargets(dep[router]))
	simplified := e.Session.Simplify(enc.Conjunction()).Simplified

	before := e.Stats().ProofChecks
	_, _, release, err := e.buildSeedSolver(ctx, enc, simplified, nil)
	if err != nil {
		t.Fatalf("linking the real simplified seed: %v", err)
	}
	release()
	if got := e.Stats().ProofChecks - before; got != 1 {
		t.Fatalf("linking the real simplified seed checked %d proofs, want 1", got)
	}

	raw, rawRelease, err := e.buildSolver(seedSolverBuild(enc, enc.Constraints))
	if err != nil {
		t.Fatal(err)
	}
	defer rawRelease()
	var pin logic.Term
	for _, v := range enc.HoleVarsByName() {
		for _, val := range holeValues(v) {
			eq := logic.Eq(v, val.Term())
			st, err := raw.Solve(logic.Not(eq))
			if err != nil {
				t.Fatal(err)
			}
			if st == sat.Sat && pin == nil {
				pin = eq
			}
		}
	}
	if pin == nil {
		t.Fatalf("every hole of %s is forced; no value to pin", router)
	}
	_, _, _, err = e.buildSeedSolver(ctx, enc, logic.And(simplified, pin), nil)
	if err == nil || !strings.Contains(err.Error(), "does not imply") {
		t.Fatalf("seed solver from the simplified seed with %s pinned: err %v, want a failed link", pin, err)
	}
}
