package verify

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

func mustReq(t *testing.T, src string) []spec.Requirement {
	t.Helper()
	b, err := spec.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	return b.Reqs
}

func TestUnconfiguredNetworkViolatesNoTransit(t *testing.T) {
	net := topology.Paper()
	reqs := mustReq(t, `Req1 { !(P1->...->P2) !(P2->...->P1) }`)
	vs, err := Check(net, config.Deployment{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("identity policies must allow transit, expected violations")
	}
	for _, v := range vs {
		if v.Witness == nil || v.Reason == "" {
			t.Fatalf("violation lacks witness/reason: %+v", v)
		}
		if !strings.Contains(v.String(), "witness") {
			t.Fatalf("String() lacks witness: %s", v)
		}
	}
}

// TestSynthesizedScenariosSatisfy simulates every scenario's
// synthesized deployment under both interpretations: interpretation 1
// (unlisted paths forbidden) and interpretation 2 (AllowUnspecified,
// unlisted paths left open). A change to the SAT core's search can
// pick another model of either encoding, and each one must still
// satisfy the requirements in simulation.
func TestSynthesizedScenariosSatisfy(t *testing.T) {
	for _, sc := range scenarios.All() {
		for _, allow := range []bool{false, true} {
			name := sc.Name + "/interp1"
			if allow {
				name = sc.Name + "/interp2"
			}
			sc, allow := sc, allow
			t.Run(name, func(t *testing.T) {
				opts := synth.DefaultOptions()
				opts.AllowUnspecified = allow
				res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), opts)
				if err != nil {
					t.Fatal(err)
				}
				ok, err := Satisfies(sc.Net, res.Deployment, sc.Requirements())
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					vs, _ := Check(sc.Net, res.Deployment, sc.Requirements())
					t.Fatalf("synthesized deployment violates spec: %v", vs)
				}
			})
		}
	}
}

func TestPreferenceViolationDetected(t *testing.T) {
	net := topology.Paper()
	// Identity policies: C's route to D1 is decided by tie-breaks, so
	// demanding the P2 route first should be violated (the tie-break
	// picks the lexicographically smaller P1 path).
	reqs := mustReq(t, `Req { (C->R3->R2->P2->...->D1) >> (C->R3->R1->P1->...->D1) }`)
	vs, err := Check(net, config.Deployment{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if vs[0].Witness == nil {
		t.Fatal("preference violation should carry the actual path")
	}
}

func TestPreferenceUnreachable(t *testing.T) {
	net := topology.Paper()
	// Block everything at R3 so C is cut off.
	r3 := config.New("R3")
	r3.AddRouteMap(&config.RouteMap{Name: "none", Clauses: nil})
	r3.AddNeighbor("C", "", "none")
	dep := config.Deployment{"R3": r3}
	reqs := mustReq(t, `Req { (C->R3->R1->P1->...->D1) >> (C->R3->R2->P2->...->D1) }`)
	vs, err := Check(net, dep, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "cannot reach") {
		t.Fatalf("violations = %v, want unreachability", vs)
	}
}

func TestPreferenceBadDestination(t *testing.T) {
	net := topology.Paper()
	reqs := []spec.Requirement{&spec.Preference{Paths: []spec.Path{
		spec.NewPath("C", "R3", "R1"),
		spec.NewPath("C", "R3", "R2", "R1"),
	}}}
	vs, err := Check(net, config.Deployment{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "originates no prefix") {
		t.Fatalf("violations = %v, want bad destination", vs)
	}
}

func TestCheckUnderFailuresScenario2(t *testing.T) {
	sc := scenarios.Scenario2()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pref := sc.Requirements()[0].(*spec.Preference)
	// Strict interpretation: no unlisted fallback may appear.
	vs, err := CheckUnderFailures(sc.Net, res.Deployment, pref, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("synthesized scenario 2 uses unlisted fallbacks: %v", vs)
	}
}

func TestCheckUnderFailuresFlagsUnlistedFallback(t *testing.T) {
	net := topology.Paper()
	// Identity deployment with both listed paths via P1: after failing
	// R3-R1, traffic falls back through P2 — an unlisted path.
	pref := mustReq(t, `Req { (C->R3->R1->P1->...->D1) >> (C->R3->R2->R1->P1->...->D1) }`)[0].(*spec.Preference)
	vs, err := CheckUnderFailures(net, config.Deployment{}, pref, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("identity deployment must use unlisted fallbacks under failure")
	}
	// Tolerant interpretation accepts them.
	vs, err = CheckUnderFailures(net, config.Deployment{}, pref, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("allowUnspecified should tolerate fallbacks: %v", vs)
	}
}

func TestForbidViolationWitnessIsConcretePath(t *testing.T) {
	net := topology.Paper()
	reqs := mustReq(t, `Req1 { !(P1->...->P2) }`)
	vs, err := Check(net, config.Deployment{}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		f := v.Req.(*spec.Forbid)
		if !spec.MatchesSubpath(f.Path, v.Witness) {
			t.Fatalf("witness %v does not match forbidden pattern %s", v.Witness, f.Path)
		}
	}
}
