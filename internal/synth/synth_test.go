package synth

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/verify"
)

func TestLPRankRoundTrip(t *testing.T) {
	for lp := 20; lp <= 170; lp += 10 {
		r, err := EncodeLP(lp)
		if err != nil {
			t.Fatalf("EncodeLP(%d): %v", lp, err)
		}
		if got := DecodeLP(r); got != lp {
			t.Fatalf("DecodeLP(EncodeLP(%d)) = %d", lp, got)
		}
	}
	if r, _ := EncodeLP(100); r != 8 {
		t.Fatalf("EncodeLP(100) = %d, want 8", r)
	}
	for _, bad := range []int{0, 95, 180, 101} {
		if _, err := EncodeLP(bad); err == nil {
			t.Errorf("EncodeLP(%d) should fail", bad)
		}
	}
}

func TestCandidateEnumeration(t *testing.T) {
	net := topology.Paper()
	e := NewEncoder(net, config.Deployment{}, DefaultOptions())
	if err := e.enumerateCandidates(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Candidates for D1's prefix at C: four paths, none through the
	// stub D1<->other provider (stubs do not transit).
	paths := e.cands.at("140.0.1.0/24", "C")
	want := map[string]bool{
		"D1 P1 R1 R3 C":    true,
		"D1 P1 R1 R2 R3 C": true,
		"D1 P2 R2 R3 C":    true,
		"D1 P2 R2 R1 R3 C": true,
	}
	if len(paths) != len(want) {
		t.Fatalf("candidates at C = %v", paths)
	}
	for _, p := range paths {
		if !want[strings.Join(p.path, " ")] {
			t.Errorf("unexpected candidate %v", p.path)
		}
	}
	// The customer's prefix must not propagate through D1 either.
	for _, p := range e.cands.at("123.0.1.0/20", "P2") {
		for _, n := range p.path[1 : len(p.path)-1] {
			if n == "D1" || n == "C" {
				t.Errorf("candidate %v transits a stub", p.path)
			}
		}
	}
}

func TestCandidateCapTruncates(t *testing.T) {
	net := topology.Paper()
	opts := DefaultOptions()
	opts.MaxCandidatesPerNode = 1
	e := NewEncoder(net, config.Deployment{}, opts)
	if err := e.enumerateCandidates(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.stats.TruncatedPaths == 0 {
		t.Fatal("cap of 1 must truncate on the paper topology")
	}
	for _, prefix := range e.voc().prefixes {
		for node, cands := range e.cands.byPrefix[prefix] {
			limit := 1
			if node == prefixOrigin(net, prefix) {
				continue
			}
			if len(cands) > limit {
				t.Fatalf("node %s has %d candidates despite cap", node, len(cands))
			}
		}
	}
}

func prefixOrigin(net *topology.Network, prefix string) string {
	for _, r := range net.Routers() {
		if r.HasPrefix && r.Prefix.String() == prefix {
			return r.Name
		}
	}
	return ""
}

func TestEncodeStatsExceedThousand(t *testing.T) {
	// The paper: "more than 1000 constraints even in the simple
	// scenario in Section 2".
	sc := scenarios.Scenario3()
	enc, err := NewEncoder(sc.Net, sc.Sketch, DefaultOptions()).Encode(sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	// NetComplete asserts many small constraints where this encoder
	// builds fewer aggregated terms; the comparable metric is the
	// total number of constraint atoms (term nodes).
	if enc.Stats.ConstraintSize <= 1000 {
		t.Fatalf("scenario 3 encodes to %d constraint atoms; the paper reports >1000", enc.Stats.ConstraintSize)
	}
	if enc.Stats.Constraints < 100 {
		t.Fatalf("scenario 3 encodes to only %d top-level constraints", enc.Stats.Constraints)
	}
	if enc.Stats.HoleVars == 0 || enc.Stats.SelVars == 0 {
		t.Fatalf("stats incomplete: %+v", enc.Stats)
	}
}

func TestSynthesizeScenario1(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range res.Deployment {
		if !c.Concrete() {
			t.Fatalf("%s still has holes", name)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Ground truth: simulation shows no transit traffic.
	vs, err := verify.Check(sc.Net, res.Deployment, sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("synthesized deployment violates the spec: %v", vs)
	}
	// The scenario's punchline: the completion blocks ALL routes from
	// R1 to P1, so P1 loses customer reachability (the underspecified
	// behavior the explanation surfaces).
	ok, err := verify.Satisfies(sc.Net, res.Deployment, []spec.Requirement{
		&spec.Forbid{Path: spec.NewPath("P1", spec.Wildcard, "C")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Log("note: completion kept P1->C reachability (spec does not forbid it)")
	}
}

func TestSynthesizeScenario2(t *testing.T) {
	sc := scenarios.Scenario2()
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := verify.Check(sc.Net, res.Deployment, sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	// Under failures, traffic must never use an unlisted path — the
	// NetComplete interpretation the paper's Scenario 2 is about.
	pref := sc.Requirements()[0].(*spec.Preference)
	fvs, err := verify.CheckUnderFailures(sc.Net, res.Deployment, pref, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fvs) != 0 {
		t.Fatalf("unlisted fallback paths in use: %v", fvs)
	}
}

func TestSynthesizeScenario3(t *testing.T) {
	sc := scenarios.Scenario3()
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := verify.Check(sc.Net, res.Deployment, sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	// Req3 restores what Scenario 1 broke: P1 reaches the customer.
	if got := mustPath(t, sc, res.Deployment, "P1", "123.0.1.0/20"); strings.Join(got, " ") != "P1 R1 R3 C" {
		t.Fatalf("P1->C path = %v, want P1 R1 R3 C", got)
	}
	// Req2: customer traffic to D1 goes through P1.
	if got := mustPath(t, sc, res.Deployment, "C", "140.0.1.0/24"); strings.Join(got, " ") != "C R3 R1 P1 D1" {
		t.Fatalf("C->D1 path = %v, want C R3 R1 P1 D1", got)
	}
}

func mustPath(t *testing.T, sc *scenarios.Scenario, dep config.Deployment, src, prefix string) []string {
	t.Helper()
	res, err := simulate(sc, dep)
	if err != nil {
		t.Fatal(err)
	}
	path := res.ForwardingPath(src, topology.MustPrefix(prefix))
	if path == nil {
		t.Fatalf("%s cannot reach %s:\n%s", src, prefix, res.Dump())
	}
	return path
}

func TestSynthesizeUnsat(t *testing.T) {
	// A forbid that cuts the only path to a required preference
	// destination is unsatisfiable.
	net := topology.Paper()
	sk := config.Deployment{}
	reqs := []spec.Requirement{
		&spec.Forbid{Path: spec.NewPath("C", "R3")}, // customer cut off
		&spec.Preference{Paths: []spec.Path{
			spec.NewPath("C", "R3", "R1", "P1", spec.Wildcard, "D1"),
			spec.NewPath("C", "R3", "R2", "P2", spec.Wildcard, "D1"),
		}},
	}
	if _, err := Synthesize(net, sk, reqs, DefaultOptions()); err == nil {
		t.Fatal("contradictory requirements should be unsatisfiable")
	}
}

func TestPreferenceValidation(t *testing.T) {
	net := topology.Paper()
	e := NewEncoder(net, config.Deployment{}, DefaultOptions())
	if err := e.enumerateCandidates(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Mismatched endpoints.
	err := e.encodePreference(&spec.Preference{Paths: []spec.Path{
		spec.NewPath("C", "R3", "R1", "P1", spec.Wildcard, "D1"),
		spec.NewPath("R1", "P1"),
	}})
	if err == nil {
		t.Fatal("mismatched endpoints should fail")
	}
	// Destination without a prefix.
	err = e.encodePreference(&spec.Preference{Paths: []spec.Path{
		spec.NewPath("C", "R3", "R1"),
		spec.NewPath("C", "R3", "R2", "R1"),
	}})
	if err == nil {
		t.Fatal("prefix-less destination should fail")
	}
}

func TestDecodeFillsEverything(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every hole of the sketch must be assigned in the model.
	for _, c := range sc.Sketch {
		for _, h := range c.Holes() {
			if _, ok := res.Model[h.Name]; !ok {
				t.Errorf("hole %s missing from model", h.Name)
			}
		}
	}
	// Decoding with an empty model fails loudly.
	if _, err := Decode(sc.Sketch, logic.Assignment{}); err == nil {
		t.Fatal("decoding without assignments should fail")
	}
}

func TestEncodingConjunction(t *testing.T) {
	sc := scenarios.Scenario1()
	enc, err := NewEncoder(sc.Net, sc.Sketch, DefaultOptions()).Encode(sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	conj := enc.Conjunction()
	if got := len(logic.Conjuncts(conj)); got < enc.Stats.Constraints {
		t.Fatalf("conjunction has %d conjuncts, want >= %d", got, enc.Stats.Constraints)
	}
}
