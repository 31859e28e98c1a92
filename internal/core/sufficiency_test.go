package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/smt"
	"repro/internal/synth"
)

// sufficiencyCase is a crafted ∀∃ instance for checkSufficiency: hole
// variables, the seed's conjuncts over the holes and routing variables,
// and a block of clauses over the holes.
type sufficiencyCase struct {
	holes       []*logic.Var
	seed, block []logic.Term
}

// sufficiencyRun is one checkSufficiency outcome: the witness (nil for
// a sufficient block), the seed queries that came back Sat (one per
// refinement round) and the proofs checked.
type sufficiencyRun struct {
	witness     logic.Assignment
	rounds      int
	proofChecks int
}

// check runs checkSufficiency on the case, as lift does: a seed solver
// asserting the seed and a domain solver declaring the holes, both
// proof-logging when verify is set.
func (c sufficiencyCase) check(t *testing.T, verify bool) sufficiencyRun {
	t.Helper()
	e := &Explainer{Opts: Options{VerifyProofs: verify}, Session: engine.NewSession(nil, nil, nil, synth.Options{})}
	declare := func(s *smt.Solver) error {
		for _, v := range c.holes {
			if err := s.Declare(v); err != nil {
				return err
			}
		}
		return nil
	}
	seedSolver, seedRelease, err := e.buildSolver(func(s *smt.Solver) error {
		if err := declare(s); err != nil {
			return err
		}
		return s.AssertAll(c.seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seedRelease()
	domSolver, domRelease, err := e.buildSolver(declare)
	if err != nil {
		t.Fatal(err)
	}
	defer domRelease()
	var run sufficiencyRun
	solves := recordSolves(func() {
		var lats []time.Duration
		run.witness, err = e.checkSufficiency(context.Background(), c.holes, c.block, c.seed, seedSolver, domSolver, &lats)
	})
	if err != nil {
		t.Fatalf("checkSufficiency: %v", err)
	}
	for _, s := range solves {
		if len(s.assume) > 0 && s.st == sat.Sat {
			run.rounds++
		}
	}
	run.proofChecks = e.Session.Stats().ProofChecks
	return run
}

// bruteForce solves seed ∧ h for every assignment h of the hole space
// the block admits. It returns the admitted assignments that extend to
// no seed model, keyed by assignmentKey, and how many it admitted.
func (c sufficiencyCase) bruteForce(t *testing.T) (rejected map[string]bool, admitted int) {
	t.Helper()
	s := smt.NewSolver()
	if err := s.AssertAll(c.seed); err != nil {
		t.Fatal(err)
	}
	rejected = map[string]bool{}
	h := logic.Assignment{}
	var walk func(i int)
	walk = func(i int) {
		if i < len(c.holes) {
			for _, val := range holeValues(c.holes[i]) {
				h[c.holes[i].Name] = val
				walk(i + 1)
			}
			return
		}
		if ok, err := logic.EvalBool(logic.And(c.block...), h); err != nil || !ok {
			return
		}
		admitted++
		assume := make([]logic.Term, len(c.holes))
		for i, v := range c.holes {
			assume[i] = logic.Eq(v, h[v.Name].Term())
		}
		st, err := s.Solve(assume...)
		if err != nil {
			t.Fatal(err)
		}
		if st == sat.Unsat {
			rejected[assignmentKey(c.holes, h)] = true
		}
	}
	walk(0)
	return rejected, admitted
}

// holeValues lists every value of the variable's finite domain, in
// domain order.
func holeValues(v *logic.Var) []logic.Value {
	switch {
	case v.S.IsBool():
		return []logic.Value{logic.BoolValue(true), logic.BoolValue(false)}
	case v.S.IsInt():
		var out []logic.Value
		for x := v.Lo; x <= v.Hi; x++ {
			out = append(out, logic.IntValue(x))
		}
		return out
	}
	out := make([]logic.Value, len(v.S.Values))
	for i, val := range v.S.Values {
		out[i] = logic.EnumValue(v.S, val)
	}
	return out
}

// assignmentKey prints the holes' values in order.
func assignmentKey(holes []*logic.Var, h logic.Assignment) string {
	parts := make([]string, len(holes))
	for i, v := range holes {
		parts[i] = v.Name + "=" + h[v.Name].String()
	}
	return strings.Join(parts, ",")
}

// TestSufficiencyWitnessOfOneCombination is the empty block whose every
// hole value extends on its own while one combination does not: a
// per-value probe calls it unconstrained, and the check must return
// that combination as the witness.
func TestSufficiencyWitnessOfOneCombination(t *testing.T) {
	a, b, c := logic.NewBoolVar("suf_a"), logic.NewBoolVar("suf_b"), logic.NewIntVar("suf_c", 0, 3)
	p, q := logic.NewBoolVar("suf_p"), logic.NewIntVar("suf_q", 0, 3)
	two := logic.NewInt(2)
	sc := sufficiencyCase{
		holes: []*logic.Var{a, b, c},
		seed: []logic.Term{
			logic.Iff(p, a),
			logic.Eq(q, c),
			logic.Not(logic.And(p, b, logic.Eq(q, two))),
		},
	}
	probe := smt.NewSolver()
	if err := probe.AssertAll(sc.seed); err != nil {
		t.Fatal(err)
	}
	for _, v := range sc.holes {
		for _, val := range holeValues(v) {
			if st, err := probe.Solve(logic.Eq(v, val.Term())); err != nil || st != sat.Sat {
				t.Fatalf("%s = %s: %v (err %v); every value must extend on its own", v.Name, val, st, err)
			}
		}
	}
	rejected, _ := sc.bruteForce(t)
	want := "suf_a=true,suf_b=true,suf_c=2"
	if len(rejected) != 1 || !rejected[want] {
		t.Fatalf("brute force rejects %v, want only %s", rejected, want)
	}
	for _, verify := range []bool{false, true} {
		run := sc.check(t, verify)
		if run.witness == nil || assignmentKey(sc.holes, run.witness) != want {
			t.Fatalf("verify=%t: witness %v, want %s", verify, run.witness, want)
		}
		if verify && run.proofChecks == 0 {
			t.Fatal("the witness's Unsat was not proof-checked")
		}
	}
}

// TestSufficiencyBeyondEnumeration is a sufficient block that admits
// 768 of 1024 hole combinations: the check must call it sufficient,
// with the final Unsat proof-checked, in no more rounds than there are
// routing outcomes.
func TestSufficiencyBeyondEnumeration(t *testing.T) {
	var holes []*logic.Var
	for i := 0; i < 10; i++ {
		holes = append(holes, logic.NewBoolVar(fmt.Sprintf("suf_h%d", i)))
	}
	r, q := logic.NewIntVar("suf_r", 0, 2), logic.NewBoolVar("suf_q")
	at := func(n int64) logic.Term { return logic.Eq(r, logic.NewInt(n)) }
	sc := sufficiencyCase{
		holes: holes,
		seed: []logic.Term{
			logic.Implies(at(0), holes[0]),
			logic.Implies(at(1), holes[1]),
			logic.Not(at(2)),
			logic.Or(q, holes[2], holes[3]),
			logic.Implies(logic.Not(q), logic.Or(at(0), holes[4])),
		},
		block: []logic.Term{logic.Or(holes[0], holes[1])},
	}
	rejected, admitted := sc.bruteForce(t)
	if admitted != 768 || len(rejected) != 0 {
		t.Fatalf("brute force: %d admitted, %d rejected; want 768 and none", admitted, len(rejected))
	}
	run := sc.check(t, true)
	if run.witness != nil {
		t.Fatalf("witness %v for a sufficient block", run.witness)
	}
	if run.proofChecks != 1 {
		t.Fatalf("%d proofs checked, want the final abstraction's", run.proofChecks)
	}
	if outcomes := 3 * 2; run.rounds > outcomes {
		t.Fatalf("%d rounds, more than the %d routing outcomes", run.rounds, outcomes)
	}
}

// TestSufficiencyMatchesBruteForce checks the loop against the brute
// force on seeded random instances: random clauses over three boolean
// holes, an integer hole and three routing variables, and a random
// block over the holes. The verdict must match, a witness must be an
// admitted assignment the seed rejects, and the loop may not take more
// rounds than there are routing outcomes.
func TestSufficiencyMatchesBruteForce(t *testing.T) {
	holes := []*logic.Var{logic.NewBoolVar("rnd_a"), logic.NewBoolVar("rnd_b"), logic.NewBoolVar("rnd_c"), logic.NewIntVar("rnd_n", 0, 2)}
	routing := []*logic.Var{logic.NewBoolVar("rnd_p"), logic.NewBoolVar("rnd_q"), logic.NewIntVar("rnd_m", 0, 2)}
	const outcomes = 2 * 2 * 3
	lit := func(rng *rand.Rand, vars []*logic.Var) logic.Term {
		v := vars[rng.Intn(len(vars))]
		var l logic.Term = v
		if v.S.IsInt() {
			l = logic.Eq(v, logic.NewInt(rng.Int63n(3)))
		}
		if rng.Intn(2) == 0 {
			l = logic.Not(l)
		}
		return l
	}
	clause := func(rng *rand.Rand, vars []*logic.Var) logic.Term {
		args := make([]logic.Term, 1+rng.Intn(3))
		for i := range args {
			args[i] = lit(rng, vars)
		}
		return logic.Or(args...)
	}
	all := append(append([]*logic.Var(nil), holes...), routing...)
	var sufficient, insufficient int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := sufficiencyCase{holes: holes}
		for i := 3 + rng.Intn(5); i > 0; i-- {
			sc.seed = append(sc.seed, clause(rng, all))
		}
		for i := rng.Intn(3); i > 0; i-- {
			sc.block = append(sc.block, clause(rng, holes))
		}
		rejected, _ := sc.bruteForce(t)
		run := sc.check(t, seed%4 == 0)
		switch {
		case run.witness == nil && len(rejected) > 0:
			t.Fatalf("seed %d: sufficient, but the brute force rejects %v", seed, rejected)
		case run.witness != nil && !rejected[assignmentKey(holes, run.witness)]:
			t.Fatalf("seed %d: witness %v is not an admitted assignment the seed rejects (%v)", seed, run.witness, rejected)
		case run.rounds > outcomes:
			t.Fatalf("seed %d: %d rounds, more than the %d routing outcomes", seed, run.rounds, outcomes)
		case run.witness == nil:
			sufficient++
		default:
			insufficient++
		}
	}
	if sufficient == 0 || insufficient == 0 {
		t.Fatalf("%d sufficient and %d insufficient instances; want both", sufficient, insufficient)
	}
}

// TestSufficiencyCensus pins the sufficiency verdict of every router
// section of the differential workloads and the 60-router what-if
// fabric, in report order: '+' sufficient, '-' insufficient, 'x' no
// lifted section because the router's seed is unsatisfiable (five of
// the Perturb variants).
func TestSufficiencyCensus(t *testing.T) {
	pinned := map[string]string{
		"scenario1":          "+++",
		"scenario1_perturb1": "+++",
		"scenario1_perturb2": "+x+",
		"scenario1_perturb3": "x++",
		"scenario2":          "---",
		"scenario2_perturb1": "xx-",
		"scenario2_perturb2": "-xx",
		"scenario2_perturb3": "---",
		"scenario3":          "---",
		"scenario3_perturb1": "---",
		"scenario3_perturb2": "xxx",
		"scenario3_perturb3": "---",
		"grid_4x4":           "++",
		"fattree_4":          "++",
		"rand_24_s42":        "++",
		"rand_6_s1":          "++",
		"rand_7_s2":          "++",
		"rand_8_s3":          "++",
		"rand_5_s4":          "++",
		"rand_6_s5":          "++",
		"rand_7_s6":          "++",
		"rand_60_g8":         strings.Repeat("+", 60),
	}
	seen := 0
	for _, w := range append(differentialWorkloads(t), whatifFabric(t)) {
		opts := DefaultOptions()
		opts.Synth = w.synth
		e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, router := range e.reportRouters() {
			ex, err := e.ExplainAll(router)
			switch {
			case err != nil && strings.Contains(err.Error(), "unsatisfiable"):
				b.WriteByte('x')
			case err != nil:
				t.Fatalf("%s %s: %v", w.name, router, err)
			case ex.SubspecComplete:
				b.WriteByte('+')
			default:
				b.WriteByte('-')
			}
		}
		if got := b.String(); got != pinned[w.name] {
			t.Errorf("%s: verdicts %q, pinned %q", w.name, got, pinned[w.name])
		}
		seen++
	}
	if seen != len(pinned) {
		t.Errorf("the census covered %d workloads, %d pinned", seen, len(pinned))
	}
}
