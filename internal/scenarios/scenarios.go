// Package scenarios builds the paper's three motivating scenarios
// (Section 2) as ready-to-run inputs: the Figure 1b topology, the
// intent specification, and a NetComplete-style configuration sketch
// whose holes the synthesizer fills. The examples, the explanation
// tests, and the benchmark harness all consume these.
package scenarios

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Scenario bundles one complete synthesis problem.
type Scenario struct {
	// Name identifies the scenario ("scenario1" ...).
	Name string
	// Title is the paper's description.
	Title string
	// Net is the topology (Figure 1b for all three).
	Net *topology.Network
	// Spec is the global intent.
	Spec *spec.Spec
	// Sketch is the partial configuration with holes.
	Sketch config.Deployment
}

// Requirements flattens the spec's requirement clauses.
func (s *Scenario) Requirements() []spec.Requirement { return s.Spec.Requirements() }

func mustSpec(src string) *spec.Spec {
	s, err := spec.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("scenarios: bad spec: %v", err))
	}
	return s
}

// exportSketch builds the Figure 1c-shaped export template at router
// toward peer: a first clause with a symbolic prefix match, action and
// next-hop parameter, then a symbolic catch-all clause.
func exportSketch(router, peer string) *config.RouteMap {
	base := fmt.Sprintf("%s_to_%s", router, peer)
	return &config.RouteMap{
		Name: base,
		Clauses: []*config.Clause{
			{
				Seq:        10,
				ActionHole: base + "_10_action",
				Matches: []*config.Match{
					{Kind: config.MatchPrefixList, ValueHole: base + "_10_match"},
				},
				Sets: []*config.Set{
					{Kind: config.SetNextHopIP, ParamHole: base + "_10_nexthop"},
				},
			},
			{
				Seq:        100,
				ActionHole: base + "_100_action",
			},
		},
	}
}

// TaggerSketch builds the import template at router from peer that
// tags incoming routes with a symbolic community.
func TaggerSketch(router, peer string) *config.RouteMap {
	base := fmt.Sprintf("%s_from_%s", router, peer)
	return &config.RouteMap{
		Name: base,
		Clauses: []*config.Clause{
			{
				Seq:    10,
				Action: config.Permit,
				Sets: []*config.Set{
					{Kind: config.SetCommunity, ParamHole: base + "_10_tag"},
				},
			},
		},
	}
}

// SelectorSketch builds the import template at router from peer that
// matches a symbolic community, decides symbolically, and assigns a
// symbolic local preference, with a symbolic catch-all.
func SelectorSketch(router, peer string) *config.RouteMap {
	base := fmt.Sprintf("%s_from_%s", router, peer)
	return &config.RouteMap{
		Name: base,
		Clauses: []*config.Clause{
			{
				Seq:        10,
				ActionHole: base + "_10_action",
				Matches: []*config.Match{
					{Kind: config.MatchCommunity, ValueHole: base + "_10_match"},
				},
				Sets: []*config.Set{
					{Kind: config.SetLocalPref, ParamHole: base + "_10_lp"},
				},
			},
			{
				Seq:        100,
				ActionHole: base + "_100_action",
				Sets: []*config.Set{
					{Kind: config.SetLocalPref, ParamHole: base + "_100_lp"},
				},
			},
		},
	}
}

// Scenario1 is "identifying underspecified paths": the no-transit
// intent over the Figure 1b topology, with export templates at the
// provider-facing routers. The synthesized completion blocks all
// routes toward the providers — satisfying the intent but also cutting
// customer connectivity, which the explanation at R1 (Figure 2)
// exposes.
func Scenario1() *Scenario {
	net := topology.Paper()

	r1 := config.New("R1")
	r1.AddRouteMap(exportSketch("R1", "P1"))
	r1.AddNeighbor("P1", "", "R1_to_P1")

	r2 := config.New("R2")
	r2.AddRouteMap(exportSketch("R2", "P2"))
	r2.AddNeighbor("P2", "", "R2_to_P2")

	r3 := config.New("R3") // no policies: the empty-subspec router

	return &Scenario{
		Name:  "scenario1",
		Title: "identifying underspecified paths (no-transit intent)",
		Net:   net,
		Spec: mustSpec(`
// No transit traffic (Figure 1a)
Req1 {
    !(P1->...->P2)
    !(P2->...->P1)
}`),
		Sketch: config.Deployment{"R1": r1, "R2": r2, "R3": r3},
	}
}

// Scenario2 is "resolving ambiguous specifications": the path
// preference for destination D1 (Figure 3). The sketch tags routes at
// the provider edges and selects on community at R3. Under the
// synthesizer's interpretation, unlisted paths are blocked — the
// ambiguity the subspecification at R3 (Figure 4) reveals.
func Scenario2() *Scenario {
	net := topology.Paper()

	r1 := config.New("R1")
	r1.AddRouteMap(TaggerSketch("R1", "P1"))
	r1.AddNeighbor("P1", "R1_from_P1", "")

	r2 := config.New("R2")
	r2.AddRouteMap(TaggerSketch("R2", "P2"))
	r2.AddNeighbor("P2", "R2_from_P2", "")

	r3 := config.New("R3")
	r3.AddRouteMap(SelectorSketch("R3", "R1"))
	r3.AddRouteMap(SelectorSketch("R3", "R2"))
	r3.AddNeighbor("R1", "R3_from_R1", "")
	r3.AddNeighbor("R2", "R3_from_R2", "")

	return &Scenario{
		Name:  "scenario2",
		Title: "resolving ambiguous specifications (path preference to D1)",
		Net:   net,
		Spec: mustSpec(`
// For D1, prefer routes through P1 over routes through P2 (Figure 3)
Req2 {
    (C->R3->R1->P1->...->D1)
    >> (C->R3->R2->P2->...->D1)
}`),
		Sketch: config.Deployment{"R1": r1, "R2": r2, "R3": r3},
	}
}

// Scenario3 is "taming complexity": all requirements combined — the
// no-transit intent, the D1 path preference, and the customer
// reachability requirement the administrator added after Scenario 1
// (traffic from P1 must reach the customer network). Asking about the
// no-transit requirement alone yields an empty subspecification at R3
// and the drop-all subspecifications at R1/R2 (Figure 5).
func Scenario3() *Scenario {
	net := topology.Paper()

	r1 := config.New("R1")
	r1.AddRouteMap(exportSketch("R1", "P1"))
	r1.AddRouteMap(TaggerSketch("R1", "P1"))
	r1.AddNeighbor("P1", "R1_from_P1", "R1_to_P1")

	r2 := config.New("R2")
	r2.AddRouteMap(exportSketch("R2", "P2"))
	r2.AddRouteMap(TaggerSketch("R2", "P2"))
	r2.AddNeighbor("P2", "R2_from_P2", "R2_to_P2")

	r3 := config.New("R3")
	r3.AddRouteMap(SelectorSketch("R3", "R1"))
	r3.AddRouteMap(SelectorSketch("R3", "R2"))
	r3.AddNeighbor("R1", "R3_from_R1", "")
	r3.AddNeighbor("R2", "R3_from_R2", "")

	return &Scenario{
		Name:  "scenario3",
		Title: "taming complexity (all requirements combined)",
		Net:   net,
		Spec: mustSpec(`
// No transit traffic
Req1 {
    !(P1->...->P2)
    !(P2->...->P1)
}
// For D1, prefer routes through P1 over routes through P2
Req2 {
    (C->R3->R1->P1->...->D1)
    >> (C->R3->R2->P2->...->D1)
}
// Allow traffic from Provider 1 to the customer network
Req3 {
    (P1->R1->R3->C)
    >> (P1->R1->R2->R3->C)
}`),
		Sketch: config.Deployment{"R1": r1, "R2": r2, "R3": r3},
	}
}

// All returns the three scenarios in order.
func All() []*Scenario {
	return []*Scenario{Scenario1(), Scenario2(), Scenario3()}
}

// ByName looks a scenario up.
func ByName(name string) (*Scenario, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("scenarios: unknown scenario %q (have scenario1, scenario2, scenario3)", name)
}
