package synth

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/topology"
	"repro/internal/verify"
)

// TestInterpretation2KeepsRedundancy checks that AllowUnspecified
// (interpretation 2 of the paper's Scenario 2) synthesizes
// configurations where unlisted paths remain usable after failures.
func TestInterpretation2KeepsRedundancy(t *testing.T) {
	sc := scenarios.Scenario2()
	opts := DefaultOptions()
	opts.AllowUnspecified = true
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Failure-free behavior still satisfies the spec.
	ok, err := verify.Satisfies(sc.Net, res.Deployment, sc.Requirements())
	if err != nil || !ok {
		t.Fatalf("interp-2 deployment fails failure-free verification: %v", err)
	}
	// With the two preferred attachments down, the unlisted detour via
	// R2-R1 still reaches D1 under interpretation 2.
	failed := sc.Net.Clone()
	failed.RemoveLink("R3", "R1")
	failed.RemoveLink("R2", "P2")
	sim, err := bgp.Simulate(failed, res.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	d1 := sc.Net.Router("D1").Prefix
	if !sim.Reachable("C", d1) {
		t.Fatalf("interp-2 lost the unlisted fallback:\n%s", sim.Dump())
	}
}

func TestInterpretation1BlocksUnlisted(t *testing.T) {
	sc := scenarios.Scenario2()
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	failed := sc.Net.Clone()
	failed.RemoveLink("R3", "R1")
	failed.RemoveLink("R2", "P2")
	sim, err := bgp.Simulate(failed, res.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	d1 := sc.Net.Router("D1").Prefix
	if sim.Reachable("C", d1) {
		t.Fatal("interpretation 1 should have blocked the unlisted detour")
	}
}

func TestCandidateCapStillVerifies(t *testing.T) {
	// Truncating candidates keeps synthesis sound (the encoding covers
	// fewer paths, but the simulation-based verifier approves the
	// result on this topology).
	sc := scenarios.Scenario1()
	opts := DefaultOptions()
	opts.MaxCandidatesPerNode = 2
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding.Stats.TruncatedPaths == 0 {
		t.Fatal("cap of 2 should truncate on the paper topology")
	}
	ok, err := verify.Satisfies(sc.Net, res.Deployment, sc.Requirements())
	if err != nil || !ok {
		t.Fatalf("capped synthesis fails verification: %v", err)
	}
}

func TestPathInfosConsistent(t *testing.T) {
	sc := scenarios.Scenario2()
	enc, err := NewEncoder(sc.Net, sc.Sketch, DefaultOptions()).Encode(sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	infos := enc.PathInfos()
	if len(infos) == 0 {
		t.Fatal("no path infos")
	}
	for _, info := range infos {
		if len(info.EdgeConds) != len(info.Path)-1 {
			t.Fatalf("%v: %d conds for %d nodes", info.Path, len(info.EdgeConds), len(info.Path))
		}
		if info.LP == nil {
			t.Fatalf("%v: missing LP term", info.Path)
		}
		// Traffic view is the reverse.
		tr := info.Traffic()
		for i := range tr {
			if tr[i] != info.Path[len(info.Path)-1-i] {
				t.Fatalf("Traffic() not reversed: %v vs %v", tr, info.Path)
			}
		}
		// Adjacent nodes are linked.
		for i := 1; i < len(info.Path); i++ {
			if !sc.Net.HasLink(info.Path[i-1], info.Path[i]) {
				t.Fatalf("%v: non-adjacent hop", info.Path)
			}
		}
	}
}

func TestPreferredTermShape(t *testing.T) {
	sc := scenarios.Scenario2()
	enc, err := NewEncoder(sc.Net, sc.Sketch, DefaultOptions()).Encode(sc.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	var a, b *PathInfo
	for i, info := range enc.PathInfos() {
		if info.Prefix != "140.0.1.0/24" || info.Path[len(info.Path)-1] != "R3" {
			continue
		}
		switch len(info.Path) {
		case 4:
			if info.Path[1] == "P1" {
				a = &enc.PathInfos()[i]
			} else {
				b = &enc.PathInfos()[i]
			}
		}
	}
	if a == nil || b == nil {
		t.Fatal("expected both short candidates at R3")
	}
	term := PreferredTerm(*a, *b, sc.Net)
	if !term.Sort().IsBool() {
		t.Fatal("PreferredTerm must be boolean")
	}
}

func TestEncoderRejectsConflictingHoleSorts(t *testing.T) {
	// The same hole name used at two sorts must be rejected.
	net := topology.Paper()
	c := config.New("R1")
	c.AddRouteMap(&config.RouteMap{Name: "m", Clauses: []*config.Clause{
		{
			Seq:     10,
			Action:  config.Permit,
			Matches: []*config.Match{{Kind: config.MatchPrefixList, ValueHole: "dup"}},
			Sets:    []*config.Set{{Kind: config.SetLocalPref, ParamHole: "dup"}},
		},
	}})
	c.AddNeighbor("P1", "", "m")
	_, err := NewEncoder(net, config.Deployment{"R1": c}, DefaultOptions()).Encode(nil)
	if err == nil {
		t.Fatal("conflicting hole sorts should fail")
	}
}

// TestEncodeRejectsUnknownNodes: a requirement whose path names a node
// the topology lacks fails the encode, whatever its kind, both in
// synthesis and in a session base over the synthesized deployment, with
// an error naming the node.
func TestEncodeRejectsUnknownNodes(t *testing.T) {
	sc := scenarios.Scenario1()
	res, err := Synthesize(sc.Net, sc.Sketch, sc.Requirements(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []spec.Requirement{
		&spec.Forbid{Path: spec.NewPath("Z9", spec.Wildcard, "P2")},
		&spec.Allow{Path: spec.NewPath("P1", "Z9", spec.Wildcard, "C")},
		&spec.Preference{Paths: []spec.Path{
			spec.NewPath("C", "R3", "R1", "P1", spec.Wildcard, "D1"),
			spec.NewPath("C", "R3", "Z9", "P2", spec.Wildcard, "D1"),
		}},
	} {
		reqs := append(sc.Requirements(), r)
		if _, err := Synthesize(sc.Net, sc.Sketch, reqs, DefaultOptions()); err == nil || !strings.Contains(err.Error(), `"Z9"`) {
			t.Errorf("synthesize with %s: error %v, want one naming Z9", r, err)
		}
		if _, err := NewBase(context.Background(), sc.Net, res.Deployment, DefaultOptions(), reqs); err == nil || !strings.Contains(err.Error(), `"Z9"`) {
			t.Errorf("base with %s: error %v, want one naming Z9", r, err)
		}
	}
}

func TestForbidMatchingOriginErrors(t *testing.T) {
	net := topology.Paper()
	e := NewEncoder(net, config.Deployment{}, DefaultOptions())
	if err := e.enumerateCandidates(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A pattern matching a bare origin announcement is a specification
	// error (you cannot forbid a network from originating itself).
	err := e.encodeForbid(&spec.Forbid{Path: spec.NewPath(spec.Wildcard, "D1")})
	if err == nil {
		t.Fatal("origin-matching forbid should fail")
	}
}
