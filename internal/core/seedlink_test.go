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

// liftRun is one lift's outcome with every timed query it ran.
type liftRun struct {
	block    string
	complete bool
	err      error
	solves   []solveRecord
}

// runLift lifts the explanation's router, recording every timed query.
func runLift(e *Explainer, enc *synth.Encoding, ex *Explanation) liftRun {
	var run liftRun
	testSolveHook = func(assume []logic.Term, st sat.Status) {
		run.solves = append(run.solves, solveRecord{assume, st})
	}
	defer func() { testSolveHook = nil }()
	block, complete, err := e.lift(context.Background(), ex.Router, enc, ex)
	run.err = err
	if err == nil {
		run.block = spec.PrintBlock(block)
		run.complete = complete
	}
	return run
}

// TestLiftVerdictsMatchRawSeed is the soundness evidence for lifting
// from the simplified seed. Each router's lift runs twice: as shipped,
// on step 3's normal form, and with Simplified set to the raw
// conjunction, which makes it the raw-seed reference. Every timed query
// — each candidate's vacuity and necessity, each checkUnconstrained
// probe, each model the sufficiency check extends — must return the
// same verdict, and the block and the sufficiency outcome must match.
// CheckSubspecNecessary, asked about every lift candidate, and
// ExplainComplement's Satisfiable must match a raw-seed solver too.
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
				enc, _, err := e.encodeSeed(ctx, router, ex.Targets)
				if err != nil {
					t.Fatal(err)
				}
				ref := *ex
				ref.Simplified = enc.Conjunction()
				got, want := runLift(e, enc, ex), runLift(e, enc, &ref)
				if (got.err == nil) != (want.err == nil) {
					t.Fatalf("%s: lift error %v, raw-seed reference error %v", router, got.err, want.err)
				}
				if got.block != want.block || got.complete != want.complete {
					t.Errorf("%s: lifted\n%s(complete %t), raw-seed reference\n%s(complete %t)",
						router, got.block, got.complete, want.block, want.complete)
				}
				if len(got.solves) != len(want.solves) {
					t.Fatalf("%s: %d lift queries, raw-seed reference %d", router, len(got.solves), len(want.solves))
				}
				for i, g := range got.solves {
					r := want.solves[i]
					if g.st != r.st || !sameTerms(g.assume, r.assume) {
						t.Errorf("%s: query %d assuming %v: %v, raw-seed reference %v assuming %v",
							router, i, g.assume, g.st, r.st, r.assume)
					}
					switch g.st {
					case sat.Sat:
						sats++
					case sat.Unsat:
						unsats++
					}
				}
				compareNecessity(t, e, enc, ex)
				compareComplement(t, e, router)
			}
		})
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("the differential saw %d Sat and %d Unsat lift verdicts; want both", sats, unsats)
	}
}

// compareNecessity asks CheckSubspecNecessary about every lift
// candidate of the router that names a candidate route, and checks each
// verdict against a raw-seed solver.
func compareNecessity(t *testing.T, e *Explainer, enc *synth.Encoding, ex *Explanation) {
	t.Helper()
	router := ex.Router
	holeNames := map[string]bool{}
	for n := range ex.HoleVars {
		holeNames[n] = true
	}
	cands, err := e.liftCandidates(router, enc, holeNames)
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
	if len(block.Reqs) == 0 {
		return
	}
	checks, err := e.CheckSubspecNecessary(router, block)
	if err != nil {
		t.Fatalf("%s: CheckSubspecNecessary: %v", router, err)
	}
	raw, release, err := e.buildSolver(seedSolverBuild(enc.HoleVars, enc.Constraints))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for i, term := range terms {
		st, err := raw.Solve(logic.Not(term))
		if err != nil {
			t.Fatal(err)
		}
		if want := st == sat.Unsat; checks[i].Necessary != want {
			t.Errorf("%s: CheckSubspecNecessary says %s necessary=%t, raw seed says %t",
				router, checks[i].Req, checks[i].Necessary, want)
		}
	}
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
	raw, release, err := e.buildSolver(seedSolverBuild(enc.HoleVars, enc.Constraints))
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
	enc, _, err := e.encodeSeed(ctx, router, AllTargets(dep[router]))
	if err != nil {
		t.Fatal(err)
	}
	simplified := e.simplify(enc.Conjunction()).Simplified

	before := e.Stats().ProofChecks
	_, release, err := e.buildSeedSolver(ctx, enc, simplified)
	if err != nil {
		t.Fatalf("linking the real simplified seed: %v", err)
	}
	release()
	if got := e.Stats().ProofChecks - before; got != 1 {
		t.Fatalf("linking the real simplified seed checked %d proofs, want 1", got)
	}

	raw, rawRelease, err := e.buildSolver(seedSolverBuild(enc.HoleVars, enc.Constraints))
	if err != nil {
		t.Fatal(err)
	}
	defer rawRelease()
	var pin logic.Term
	for _, v := range sortedHoleVars(enc.HoleVars) {
		for _, val := range domainValues(v) {
			eq := logic.Eq(v, val)
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
	_, _, err = e.buildSeedSolver(ctx, enc, logic.And(simplified, pin))
	if err == nil || !strings.Contains(err.Error(), "does not imply") {
		t.Fatalf("seed solver from the simplified seed with %s pinned: err %v, want a failed link", pin, err)
	}
}
