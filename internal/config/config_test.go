package config

import (
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/topology"
)

func r1Fig1c() *Config {
	// The paper's Figure 1c: R1 blocks the customer prefix toward P1
	// (and resets next-hop, which is redundant), ending with a
	// deny-all clause.
	c := New("R1")
	c.AddPrefixList(&PrefixList{
		Name: "ip_list_R1_1",
		Entries: []PrefixEntry{
			{Seq: 10, Action: Permit, Prefix: topology.MustPrefix("123.0.1.0/20")},
		},
	})
	c.AddRouteMap(&RouteMap{
		Name: "R1_to_P1",
		Clauses: []*Clause{
			{
				Seq:    1,
				Action: Deny,
				Matches: []*Match{
					{Kind: MatchPrefixList, PrefixList: "ip_list_R1_1"},
				},
				Sets: []*Set{
					{Kind: SetNextHopIP, NextHopIP: "10.0.0.1"},
				},
			},
			{Seq: 100, Action: Deny},
		},
	})
	c.AddNeighbor("P1", "", "R1_to_P1")
	return c
}

func custRoute() *bgp.Route {
	r := bgp.Originate("C", 600, topology.MustPrefix("123.0.1.0/20"))
	r.Path = []string{"C", "R3", "R1"}
	r.NextHop = "R3"
	return r
}

func TestApplyRouteMapDeny(t *testing.T) {
	c := r1Fig1c()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.ApplyRouteMap("R1_to_P1", custRoute()); got != nil {
		t.Fatal("customer prefix must be denied toward P1")
	}
	// A different prefix falls through to the catch-all deny.
	other := bgp.Originate("D1", 700, topology.MustPrefix("140.0.1.0/24"))
	if got := c.ApplyRouteMap("R1_to_P1", other); got != nil {
		t.Fatal("catch-all deny must drop other prefixes")
	}
}

func TestApplyRouteMapPermitSets(t *testing.T) {
	c := New("R3")
	c.AddRouteMap(&RouteMap{
		Name: "R3_from_R1",
		Clauses: []*Clause{
			{
				Seq:    10,
				Action: Permit,
				Sets: []*Set{
					{Kind: SetLocalPref, LocalPref: 200},
					{Kind: SetCommunity, Community: bgp.MustCommunity("100:2")},
					{Kind: SetMED, MED: 30},
				},
			},
		},
	})
	r := custRoute()
	got := c.ApplyRouteMap("R3_from_R1", r)
	if got == nil {
		t.Fatal("permit clause must pass the route")
	}
	if got.LocalPref != 200 || got.MED != 30 || !got.HasCommunity(bgp.MustCommunity("100:2")) {
		t.Fatalf("sets not applied: %+v", got)
	}
}

func TestFirstMatchWins(t *testing.T) {
	c := New("R1")
	c.AddRouteMap(&RouteMap{
		Name: "m",
		Clauses: []*Clause{
			{Seq: 10, Action: Permit, Matches: []*Match{{Kind: MatchCommunity, Community: bgp.MustCommunity("1:1")}},
				Sets: []*Set{{Kind: SetLocalPref, LocalPref: 300}}},
			{Seq: 20, Action: Permit, Sets: []*Set{{Kind: SetLocalPref, LocalPref: 50}}},
		},
	})
	tagged := custRoute()
	tagged.Communities[bgp.MustCommunity("1:1")] = true
	if got := c.ApplyRouteMap("m", tagged); got.LocalPref != 300 {
		t.Fatalf("first clause should win, lp=%d", got.LocalPref)
	}
	plain := custRoute()
	if got := c.ApplyRouteMap("m", plain); got.LocalPref != 50 {
		t.Fatalf("second clause should catch, lp=%d", got.LocalPref)
	}
}

func TestMatchNextHop(t *testing.T) {
	c := New("R3")
	c.AddRouteMap(&RouteMap{
		Name: "m",
		Clauses: []*Clause{
			{Seq: 10, Action: Deny, Matches: []*Match{{Kind: MatchNextHopIs, NextHop: "R1"}}},
			{Seq: 20, Action: Permit},
		},
	})
	fromR1 := custRoute()
	fromR1.NextHop = "R1"
	if c.ApplyRouteMap("m", fromR1) != nil {
		t.Fatal("route from R1 must be denied")
	}
	fromR2 := custRoute()
	fromR2.NextHop = "R2"
	if c.ApplyRouteMap("m", fromR2) == nil {
		t.Fatal("route from R2 must pass")
	}
}

func TestImplicitDeny(t *testing.T) {
	c := New("R1")
	c.AddRouteMap(&RouteMap{Name: "empty"})
	if c.ApplyRouteMap("empty", custRoute()) != nil {
		t.Fatal("empty route map must deny")
	}
}

func TestApplyPanicsOnHoles(t *testing.T) {
	c := New("R1")
	c.AddRouteMap(&RouteMap{Name: "m", Clauses: []*Clause{{Seq: 1, ActionHole: "va"}}})
	mustPanic(t, func() { c.ApplyRouteMap("m", custRoute()) })
	c2 := New("R1")
	c2.AddRouteMap(&RouteMap{Name: "m", Clauses: []*Clause{
		{Seq: 1, Action: Permit, Matches: []*Match{{Kind: MatchCommunity, ValueHole: "vv"}}}}})
	mustPanic(t, func() { c2.ApplyRouteMap("m", custRoute()) })
	mustPanic(t, func() { c.ApplyRouteMap("missing", custRoute()) })
}

func TestHolesEnumeration(t *testing.T) {
	c := New("R1")
	c.AddRouteMap(&RouteMap{Name: "m", Clauses: []*Clause{
		{
			Seq:        1,
			ActionHole: "Var_Action",
			Matches:    []*Match{{Kind: MatchPrefixList, ValueHole: "Var_Val"}},
			Sets:       []*Set{{Kind: SetNextHopIP, ParamHole: "Var_Param"}},
		},
	}})
	holes := c.Holes()
	if len(holes) != 3 {
		t.Fatalf("holes = %d, want 3", len(holes))
	}
	names := []string{holes[0].Name, holes[1].Name, holes[2].Name}
	if strings.Join(names, ",") != "Var_Action,Var_Val,Var_Param" {
		t.Fatalf("hole names = %v", names)
	}
	for _, h := range holes {
		if !strings.Contains(h.Where, "route-map m clause 1") {
			t.Fatalf("hole location = %q", h.Where)
		}
	}
	if c.Concrete() {
		t.Fatal("config with holes reported concrete")
	}
	if !r1Fig1c().Concrete() {
		t.Fatal("concrete config reported non-concrete")
	}
}

func TestCloneIndependence(t *testing.T) {
	c := r1Fig1c()
	cp := c.Clone()
	cp.RouteMaps["R1_to_P1"].Clauses[0].Action = Permit
	cp.PrefixLists["ip_list_R1_1"].Entries[0].Action = Deny
	cp.Neighbors[0].ExportMap = "other"
	if c.RouteMaps["R1_to_P1"].Clauses[0].Action != Deny {
		t.Fatal("Clone shares clauses")
	}
	if c.PrefixLists["ip_list_R1_1"].Entries[0].Action != Permit {
		t.Fatal("Clone shares prefix lists")
	}
	if c.Neighbors[0].ExportMap != "R1_to_P1" {
		t.Fatal("Clone shares neighbors")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	c := r1Fig1c()
	// Add every construct so the round trip covers the full dialect.
	c.AddRouteMap(&RouteMap{
		Name: "R1_from_R2",
		Clauses: []*Clause{
			{
				Seq:    10,
				Action: Permit,
				Matches: []*Match{
					{Kind: MatchCommunity, Community: bgp.MustCommunity("100:2")},
					{Kind: MatchNextHopIs, NextHop: "R2"},
				},
				Sets: []*Set{
					{Kind: SetLocalPref, LocalPref: 150},
					{Kind: SetCommunity, Community: bgp.MustCommunity("100:3")},
					{Kind: SetMED, MED: 5},
				},
			},
		},
	})
	c.AddNeighbor("R2", "R1_from_R2", "")
	printed := Print(c)
	parsed, err := Parse(printed)
	if err != nil {
		t.Fatalf("Parse failed: %v\n%s", err, printed)
	}
	if Print(parsed) != printed {
		t.Fatalf("round trip unstable:\n%s\n---\n%s", printed, Print(parsed))
	}
}

func TestPrintParseHoles(t *testing.T) {
	c := New("R1")
	c.AddNeighbor("P1", "", "m")
	c.AddRouteMap(&RouteMap{Name: "m", Clauses: []*Clause{
		{
			Seq:        1,
			ActionHole: "Var_Action",
			Matches:    []*Match{{Kind: MatchCommunity, ValueHole: "Var_Val"}},
			Sets:       []*Set{{Kind: SetLocalPref, ParamHole: "Var_Param"}},
		},
	}})
	printed := Print(c)
	for _, want := range []string{"?Var_Action", "?Var_Val", "?Var_Param"} {
		if !strings.Contains(printed, want) {
			t.Fatalf("printed sketch missing %q:\n%s", want, printed)
		}
	}
	parsed, err := Parse(printed)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Holes()) != 3 {
		t.Fatalf("holes after round trip = %d, want 3", len(parsed.Holes()))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"neighbor P1",                  // before router stanza
		"router bgp R1\nrouter bgp R2", // duplicate stanza
		"router bgp R1\nneighbor",      // malformed
		"router bgp R1\nneighbor P1 route-map m sideways",                             // bad direction
		"router bgp R1\nmatch community 1:1",                                          // match outside clause
		"router bgp R1\nset metric 5",                                                 // set outside clause
		"router bgp R1\nroute-map m permit x",                                         // bad seq
		"router bgp R1\nroute-map m permit 10\n match ip address prefix-list missing", // unknown list
		"router bgp R1\nroute-map m maybe 10",                                         // bad action
		"router bgp R1\nip prefix-list p seq 1 permit nonsense",                       // bad prefix
		"router bgp R1\nroute-map m permit 10\n match community nonsense",
		"router bgp R1\nroute-map m permit 10\n set local-preference abc",
		"router bgp R1\nroute-map m permit 10\nroute-map m permit 10", // non-increasing seq
		"router bgp R1\ngarbage here",
		"router bgp R1\nneighbor P1 route-map missing out", // unknown map
		// Lines that would drop an earlier binding or a trailing token.
		"router bgp R1\nneighbor P1 route-map m out\nneighbor P1 route-map n out\nroute-map m permit 10\nroute-map n permit 10",
		"router bgp R1\nneighbor P1 route-map m out\nneighbor P1\nroute-map m permit 10",
		"router bgp R1\nroute-map m permit 10\n set community 1:1 ?c",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseRejectsBareHole requires a bare "?" to be a parse error in
// every hole position. Read as a hole with the empty name, it would
// leave the field concrete at its zero value (a deny action, community
// 0:0, local preference 0).
func TestParseRejectsBareHole(t *testing.T) {
	for _, line := range []string{
		"route-map m ? 10",
		"route-map m permit 10\n match ip address prefix-list ?",
		"route-map m permit 10\n match community ?",
		"route-map m permit 10\n match next-hop ?",
		"route-map m permit 10\n set local-preference ?",
		"route-map m permit 10\n set community ? additive",
		"route-map m permit 10\n set metric ?",
		"route-map m permit 10\n set next-hop ?",
	} {
		src := "router bgp R1\n" + line
		if c, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted a nameless hole:\n%s", src, Print(c))
		}
		if _, err := Parse(strings.Replace(src, " ?", " ?h", 1)); err != nil {
			t.Errorf("named hole rejected: %v", err)
		}
	}
}

func TestDeploymentPolicy(t *testing.T) {
	net := topology.Paper()
	dep := Deployment{"R1": r1Fig1c()}
	res, err := bgp.Simulate(net, dep)
	if err != nil {
		t.Fatal(err)
	}
	// R1 blocks the customer prefix toward P1 (and everything else via
	// the catch-all deny): P1 must not learn C through R1.
	cPfx := net.Router("C").Prefix
	path := res.ForwardingPath("P1", cPfx)
	for i, n := range path {
		if n == "R1" && i == 1 {
			t.Fatalf("P1 still routes to C via R1: %v", path)
		}
	}
	// Other routers unaffected.
	if !res.Reachable("R2", cPfx) {
		t.Fatal("R2 lost reachability to C")
	}
}

func TestDeploymentIdentityForUnknownRouters(t *testing.T) {
	dep := Deployment{}
	r := custRoute()
	if got := dep.Export("R9", "P1", r); got != r {
		t.Fatal("unknown router should be identity")
	}
	if got := dep.Import("R9", "P1", r); got != r {
		t.Fatal("unknown router should be identity")
	}
	// Known router, unbound neighbor: identity.
	dep["R1"] = r1Fig1c()
	if got := dep.Export("R1", "R2", r); got != r {
		t.Fatal("unbound neighbor should be identity")
	}
	// Bound neighbor applies the map.
	if got := dep.Export("R1", "P1", custRoute()); got != nil {
		t.Fatal("bound export map should deny")
	}
}

func TestValidate(t *testing.T) {
	c := r1Fig1c()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.AddNeighbor("R2", "missing", "")
	if err := c.Validate(); err == nil {
		t.Fatal("unknown route map should fail validation")
	}
}

func TestPrefixListPermits(t *testing.T) {
	pl := &PrefixList{Name: "p", Entries: []PrefixEntry{
		{Seq: 10, Action: Deny, Prefix: topology.MustPrefix("10.0.0.0/8")},
		{Seq: 20, Action: Permit, Prefix: topology.MustPrefix("10.0.0.0/8")}, // shadowed
		{Seq: 30, Action: Permit, Prefix: topology.MustPrefix("11.0.0.0/8")},
	}}
	if pl.Permits(topology.MustPrefix("10.0.0.0/8")) {
		t.Fatal("first entry (deny) must win")
	}
	if !pl.Permits(topology.MustPrefix("11.0.0.0/8")) {
		t.Fatal("explicit permit must pass")
	}
	if pl.Permits(topology.MustPrefix("12.0.0.0/8")) {
		t.Fatal("no match must deny")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestPrintDeployment(t *testing.T) {
	dep := Deployment{"R1": r1Fig1c(), "R2": New("R2")}
	out := PrintDeployment(dep)
	if !strings.Contains(out, "router bgp R1") || !strings.Contains(out, "router bgp R2") {
		t.Fatalf("deployment print incomplete:\n%s", out)
	}
	// Deterministic order: R1 before R2.
	if strings.Index(out, "router bgp R1") > strings.Index(out, "router bgp R2") {
		t.Fatal("deployment print not sorted")
	}
}
