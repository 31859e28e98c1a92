package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/verify"
)

// TestExplainHandWrittenDeployment exercises the generalization the
// paper's Section 5 proposes ("explainable network verification"): the
// explainer needs no synthesizer — any concrete deployment that
// satisfies a specification can be explained, revealing WHY it does.
func TestExplainHandWrittenDeployment(t *testing.T) {
	net := topology.Paper()
	reqs := mustReqs(t, `Req1 { !(P1->...->P2) !(P2->...->P1) }`)

	// A hand-written R1 config an operator might deploy: block the
	// provider prefixes explicitly toward P1, allow the rest.
	r1 := config.New("R1")
	r1.AddPrefixList(&config.PrefixList{Name: "providers", Entries: []config.PrefixEntry{
		{Seq: 10, Action: config.Permit, Prefix: topology.MustPrefix("128.0.2.0/24")},
	}})
	r1.AddRouteMap(&config.RouteMap{Name: "out_p1", Clauses: []*config.Clause{
		{Seq: 10, Action: config.Deny, Matches: []*config.Match{{Kind: config.MatchPrefixList, PrefixList: "providers"}}},
		{Seq: 20, Action: config.Deny, Matches: []*config.Match{{Kind: config.MatchNextHopIs, NextHop: "R2"}}},
		{Seq: 30, Action: config.Deny, Matches: []*config.Match{{Kind: config.MatchNextHopIs, NextHop: "R3"}}},
		{Seq: 100, Action: config.Permit},
	}})
	r1.AddNeighbor("P1", "", "out_p1")

	r2 := config.New("R2")
	r2.AddRouteMap(&config.RouteMap{Name: "out_p2", Clauses: []*config.Clause{
		{Seq: 10, Action: config.Deny, Matches: []*config.Match{{Kind: config.MatchNextHopIs, NextHop: "R1"}}},
		{Seq: 20, Action: config.Deny, Matches: []*config.Match{{Kind: config.MatchNextHopIs, NextHop: "R3"}}},
		{Seq: 100, Action: config.Permit},
	}})
	r2.AddNeighbor("P2", "", "out_p2")

	dep := config.Deployment{"R1": r1, "R2": r2}
	ok, err := verify.Satisfies(net, dep, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		vs, _ := verify.Check(net, dep, reqs)
		t.Fatalf("hand-written deployment should satisfy the spec: %v", vs)
	}

	// Explain it — no synthesis anywhere in this test.
	e, err := NewExplainer(net, reqs, dep, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec == nil || ex.Subspec.IsEmpty() {
		t.Fatal("hand-written R1 must have a non-empty subspec for no-transit")
	}
	joined := strings.Join(subspecStrings(ex.Subspec), "\n")
	if !strings.Contains(joined, "P2->R2->R1->P1") {
		t.Fatalf("subspec misses the transit block:\n%s", joined)
	}
	// And the config validates against its own subspec.
	if !allHold(t, e, "R1", ex.Subspec) {
		t.Fatal("hand-written config fails its own subspec")
	}
}

// TestReport exercises the whole-deployment report.
func TestReport(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, sc.Spec.Block("Req1").Reqs)
	report, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"EXPLANATION REPORT",
		"--- R1 ---",
		"--- R2 ---",
		"--- R3 ---",
		"R3 { }",
		"!(P1->R1->R2->P2)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report misses %q", want)
		}
	}
}

func mustReqs(t *testing.T, src string) []spec.Requirement {
	t.Helper()
	s, err := spec.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s.Requirements()
}
