package core

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
)

// setGOMAXPROCS sets GOMAXPROCS, which sizes the report stream's router
// pool, for the rest of the test and restores the previous value when
// the test ends. GOMAXPROCS is process-wide, so only tests that do not
// call t.Parallel may use it.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// synthScenario synthesizes a scenario once per test binary run.
func synthScenario(t *testing.T, sc *scenarios.Scenario) config.Deployment {
	t.Helper()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize %s: %v", sc.Name, err)
	}
	return res.Deployment
}

func newExplainer(t *testing.T, sc *scenarios.Scenario, dep config.Deployment, reqs []spec.Requirement) *Explainer {
	t.Helper()
	if reqs == nil {
		reqs = sc.Requirements()
	}
	e, err := NewExplainer(sc.Net, reqs, dep, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// seedEncoding runs steps 1 and 2 for the router: its deployed config
// with the targets symbolized, encoded through the session cache.
func seedEncoding(t *testing.T, e *Explainer, router string, targets []Target) *synth.Encoding {
	t.Helper()
	sym, _, err := e.symbolize(router, targets)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := e.encode(context.Background(), router, targets, sym)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func subspecStrings(b *spec.Block) []string {
	var out []string
	for _, r := range b.Reqs {
		out = append(out, r.String())
	}
	return out
}

func TestSymbolize(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	r1 := dep["R1"]
	targets := AllTargets(r1)
	if len(targets) == 0 {
		t.Fatal("no targets on R1")
	}
	sym, replaced, err := Symbolize(r1, targets)
	if err != nil {
		t.Fatal(err)
	}
	holes := sym.Holes()
	if len(holes) != len(targets) {
		t.Fatalf("holes = %d, targets = %d", len(holes), len(targets))
	}
	if len(replaced) != len(targets) {
		t.Fatalf("replaced = %d, want %d", len(replaced), len(targets))
	}
	// Original untouched.
	if !r1.Concrete() {
		t.Fatal("Symbolize mutated the original")
	}
	// Double symbolization fails.
	if _, _, err := Symbolize(sym, targets[:1]); err == nil {
		t.Fatal("re-symbolizing should fail")
	}
	// Bad targets fail.
	if _, _, err := Symbolize(r1, []Target{{Map: "nope", Seq: 1, Field: FieldAction}}); err == nil {
		t.Fatal("unknown map should fail")
	}
	if _, _, err := Symbolize(r1, []Target{{Map: targets[0].Map, Seq: 9999, Field: FieldAction}}); err == nil {
		t.Fatal("unknown clause should fail")
	}
}

func TestTargetNaming(t *testing.T) {
	tg := Target{Map: "R1_to_P1", Seq: 10, Field: FieldAction}
	if tg.HoleName() != "Var_Action_R1_to_P1_10" {
		t.Fatalf("HoleName = %q", tg.HoleName())
	}
	tg2 := Target{Map: "m", Seq: 5, Field: FieldMatch, Index: 1}
	if tg2.HoleName() != "Var_Val_m_5_1" {
		t.Fatalf("HoleName = %q", tg2.HoleName())
	}
	if !strings.Contains(tg.String(), "action") || !strings.Contains(tg2.String(), "match") {
		t.Fatal("Target.String lacks field kind")
	}
}

// TestScenario1SubspecAtR1 reproduces Figure 2: the explanation at R1
// for the no-transit intent shows that R1's job is to block the
// provider-to-provider routes through it.
func TestScenario1SubspecAtR1(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	ex, err := newExplainer(t, sc, dep, nil).ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}
	// The seed must be big (the paper: >1000 constraint atoms) and the
	// simplified form must be small.
	if ex.SeedSize < 1000 {
		t.Fatalf("seed size = %d, expected >1000 atoms", ex.SeedSize)
	}
	if ex.SimplifiedSize >= ex.SeedSize/10 {
		t.Fatalf("simplification too weak: %d -> %d", ex.SeedSize, ex.SimplifiedSize)
	}
	if ex.Subspec == nil {
		t.Fatal("no subspec")
	}
	got := subspecStrings(ex.Subspec)
	// R1 must drop the provider routes that would otherwise transit:
	// the P2-side routes crossing R1 toward P1.
	joined := strings.Join(got, "\n")
	if !strings.Contains(joined, "P2->R2->R1->P1") {
		t.Fatalf("subspec misses the transit block:\n%s", joined)
	}
	for _, s := range got {
		if !strings.HasPrefix(s, "!(") {
			t.Fatalf("unexpected non-forbid clause in no-transit subspec: %s", s)
		}
	}
	if !ex.SubspecComplete {
		t.Fatal("lifted subspec should be verified complete")
	}
}

// TestScenario3EmptySubspecAtR3 reproduces the Scenario 3 observation:
// asked about the no-transit requirement alone, R3's subspecification
// is empty — R3 can do anything.
func TestScenario3EmptySubspecAtR3(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	noTransit := sc.Spec.Block("Req1")
	var reqs []spec.Requirement
	reqs = append(reqs, noTransit.Reqs...)
	ex, err := newExplainer(t, sc, dep, reqs).ExplainAll("R3")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec == nil || !ex.Subspec.IsEmpty() {
		t.Fatalf("expected empty subspec at R3, got %v", subspecStrings(ex.Subspec))
	}
	if !ex.SubspecComplete {
		t.Fatal("empty subspec at R3 must verify as complete (R3 truly unconstrained)")
	}
}

// TestScenario3SubspecAtR2 reproduces Figure 5: for the no-transit
// requirement, R2 must drop the P1-side routes toward P2.
func TestScenario3SubspecAtR2(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	noTransit := sc.Spec.Block("Req1")
	ex, err := newExplainer(t, sc, dep, noTransit.Reqs).ExplainAll("R2")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec == nil || ex.Subspec.IsEmpty() {
		t.Fatal("expected non-empty subspec at R2")
	}
	joined := strings.Join(subspecStrings(ex.Subspec), "\n")
	// Figure 5's two clauses, in route-propagation order.
	for _, want := range []string{"P1->R1->R2->P2", "P1->R1->R3->R2->P2"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("subspec misses %q:\n%s", want, joined)
		}
	}
}

// TestScenario2SubspecAtR3 reproduces Figure 4: the subspecification
// at R3 for the path-preference requirement shows (1) the preference
// between the two provider routes and (2) the drops of the two
// unlisted routes.
func TestScenario2SubspecAtR3(t *testing.T) {
	sc := scenarios.Scenario2()
	dep := synthScenario(t, sc)
	ex, err := newExplainer(t, sc, dep, nil).ExplainAll("R3")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec == nil {
		t.Fatal("no subspec")
	}
	prefs := ex.Subspec.Preferences()
	if len(prefs) == 0 {
		t.Fatalf("subspec at R3 misses the preference clause:\n%s", strings.Join(subspecStrings(ex.Subspec), "\n"))
	}
	foundPref := false
	for _, p := range prefs {
		if p.String() == "(R3->R1->P1->D1) >> (R3->R2->P2->D1)" {
			foundPref = true
		}
	}
	if !foundPref {
		t.Fatalf("preference clause mismatch: %v", subspecStrings(ex.Subspec))
	}
	joined := strings.Join(subspecStrings(ex.Subspec), "\n")
	// The two unlisted-route drops (Figure 4's forbids, in route
	// order, after suffix generalization: the P1->R1->R2 leg entering
	// R3 covers every prefix routed that way).
	for _, want := range []string{"P1->R1->R2->R3", "P2->R2->R1->R3"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("subspec misses drop %q:\n%s", want, joined)
		}
	}
}

// TestPerVariableExplanation reproduces the paper's one-variable-at-a-
// time strategy (Section 4, observation 2): explaining only the
// catch-all clause's action of R1's export map yields a tiny residual
// pinning it to deny.
func TestPerVariableExplanation(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	tgt := Target{Map: "R1_to_P1", Seq: 100, Field: FieldAction}
	ex, err := e.Explain("R1", []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.HoleVars) != 1 {
		t.Fatalf("hole vars = %d, want 1", len(ex.HoleVars))
	}
	if ex.ResidualSize == 0 || ex.ResidualSize > 40 {
		t.Fatalf("per-variable residual size = %d, want small and nonzero:\n%s", ex.ResidualSize, ex.ResidualText())
	}
	// The catch-all must deny (everything else concrete blocks nothing).
	if !strings.Contains(ex.ResidualText(), "deny") {
		t.Fatalf("residual does not pin the action:\n%s", ex.ResidualText())
	}
	if got := ex.Replaced[tgt.HoleName()]; got != "deny" {
		t.Fatalf("replaced value = %q, want deny", got)
	}
}

// TestRedundantSetNextHop reproduces Scenario 1's redundancy finding:
// the set next-hop parameter is unconstrained — the subspecification
// for it is empty.
func TestRedundantSetNextHop(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	// The sketch's clause 10 set line (index 0) is the next-hop set.
	tgt := Target{Map: "R1_to_P1", Seq: 10, Field: FieldSet, Index: 0}
	ex, err := e.Explain("R1", []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Residual) != 0 {
		t.Fatalf("set next-hop should be unconstrained, residual:\n%s", ex.ResidualText())
	}
	if ex.Subspec == nil || !ex.Subspec.IsEmpty() {
		t.Fatalf("subspec should be empty: %v", subspecStrings(ex.Subspec))
	}
	if !ex.SubspecComplete {
		t.Fatal("empty subspec over an unconstrained variable is complete")
	}
}

func TestReductionFactorLarge(t *testing.T) {
	// The paper's headline quantitative claim: seed specifications of
	// >1000 constraints reduce to "a few constraints".
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	for _, router := range []string{"R1", "R2", "R3"} {
		ex, err := e.ExplainAll(router)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Reduction() < 5 {
			t.Errorf("%s: reduction factor %.1f too small (%d -> %d)",
				router, ex.Reduction(), ex.SeedSize, ex.SimplifiedSize)
		}
		fires, passes := rewrite.CountFires(ex.Seed)
		if ex.Passes < 1 || ex.Passes != passes || len(fires) == 0 {
			t.Errorf("%s: rewrite stats not recorded (passes %d, counting run %d, %d rules fired)",
				router, ex.Passes, passes, len(fires))
		}
	}
}

func TestExplainUnknownRouter(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	if _, err := e.ExplainAll("R9"); err == nil {
		t.Fatal("unknown router should fail")
	}
}

func TestExplainUnconfiguredRouterIsEmpty(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	delete(dep, "R3") // R3 has no policies anyway
	e := newExplainer(t, sc, dep, nil)
	ex, err := e.ExplainAll("R3")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec == nil || !ex.Subspec.IsEmpty() || !ex.SubspecComplete {
		t.Fatal("unconfigured router must have the empty, complete subspec")
	}
	if len(ex.Residual) != 0 {
		t.Fatal("unconfigured router must have no residual constraints")
	}
}

func TestNewExplainerRejectsHoles(t *testing.T) {
	sc := scenarios.Scenario1()
	if _, err := NewExplainer(sc.Net, sc.Requirements(), sc.Sketch, DefaultOptions()); err == nil {
		t.Fatal("sketch with holes must be rejected")
	}
}

func TestExplanationTextHelpers(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	ex, err := e.ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}
	if ex.ResidualText() == "" {
		t.Fatal("ResidualText empty")
	}
	if spec.PrintBlock(ex.Subspec) == "" {
		t.Fatal("subspec does not print")
	}
	// Lifting disabled.
	opts := DefaultOptions()
	opts.Lift = false
	e2, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := e2.ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Subspec != nil {
		t.Fatal("lift disabled should leave Subspec nil")
	}
}

func TestExplainTargetsWithoutConfigFails(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	delete(dep, "R3")
	e := newExplainer(t, sc, dep, nil)
	_, err := e.Explain("R3", []Target{{Map: "m", Seq: 1, Field: FieldAction}})
	if err == nil {
		t.Fatal("symbolizing an unconfigured router should fail cleanly")
	}
}

func synthOpts() synth.Options { return synth.DefaultOptions() }

func synthWith(sc *scenarios.Scenario, opts synth.Options) (config.Deployment, error) {
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), opts)
	if err != nil {
		return nil, err
	}
	return res.Deployment, nil
}
