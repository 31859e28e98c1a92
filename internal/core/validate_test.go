package core

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/verify"
)

// allHold reports whether every clause of the block holds of the
// router's deployed configuration.
func allHold(t *testing.T, e *Explainer, router string, block *spec.Block) bool {
	t.Helper()
	checks, err := e.CheckSubspec(router, block)
	if err != nil {
		t.Fatalf("%s: CheckSubspec: %v", router, err)
	}
	for _, ch := range checks {
		if !ch.Holds {
			return false
		}
	}
	return true
}

// TestCheckSubspecAcceptsOwnConfig checks the round trip the paper's
// workflow relies on: a deployed configuration that meets its intent
// satisfies its own lifted subspecifications. It covers every router of
// every differential workload, empty blocks included; several Perturb
// variants carry MED lines ("set metric 20"), which the encoder never
// reads. Some Perturb variants break the intent (the simulator,
// verify.Check, finds a violation or no stable state): there a router's
// seed may be unsatisfiable, and a lifted clause may fail, but every
// lifted block still gets a verdict per clause.
func TestCheckSubspecAcceptsOwnConfig(t *testing.T) {
	clauses := 0
	for _, w := range differentialWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			violations, err := verify.Check(w.net, w.dep, w.reqs)
			meetsIntent := err == nil && len(violations) == 0
			opts := DefaultOptions()
			opts.Synth = w.synth
			e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, router := range e.reportRouters() {
				ex, err := e.ExplainAll(router)
				if err != nil {
					if meetsIntent {
						t.Fatalf("%s: %v", router, err)
					}
					continue
				}
				checks, err := e.CheckSubspec(router, ex.Subspec)
				if err != nil {
					t.Fatalf("%s: CheckSubspec: %v", router, err)
				}
				if len(checks) != len(ex.Subspec.Reqs) {
					t.Fatalf("%s: %d checks for %d clauses", router, len(checks), len(ex.Subspec.Reqs))
				}
				for _, ch := range checks {
					if !ch.Holds && meetsIntent {
						t.Errorf("%s: clause %s does not hold on the deployed config", router, ch.Req)
					}
				}
				clauses += len(checks)
			}
		})
	}
	if clauses == 0 {
		t.Fatal("no lifted clause was checked")
	}
}

// TestCheckSubspecMatchesHoleReference pins validation on the session
// base against the construction it replaced: symbolize every field of
// the router, encode that sketch, map each deployed field to the value
// of its hole and evaluate the clause term under that assignment. Over
// every lift candidate of every router of the differential workloads
// and the 60-router fabric, the two verdicts must agree wherever the
// mapping exists; where it does not (a MED outside the rank domain),
// validation must still give a verdict.
func TestCheckSubspecMatchesHoleReference(t *testing.T) {
	compared, unmapped := 0, 0
	for _, w := range append(differentialWorkloads(t), whatifFabric(t)) {
		t.Run(w.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Synth = w.synth
			opts.Lift = false
			e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, router := range e.reportRouters() {
				targets := AllTargets(w.dep[router])
				enc := seedEncoding(t, e, router, targets)
				block, terms := candidateBlock(t, e, enc, router)
				checks, err := e.CheckSubspec(router, block)
				if err != nil {
					t.Fatalf("%s: CheckSubspec: %v", router, err)
				}
				assign, err := holeAssignment(enc, w.dep[router], targets)
				if err != nil {
					unmapped += len(checks)
					continue
				}
				for i, term := range terms {
					want, err := logic.EvalBool(term, assign)
					if err != nil {
						t.Fatalf("%s: reference on %s: %v", router, checks[i].Req, err)
					}
					if checks[i].Holds != want {
						t.Errorf("%s: %s holds=%t on the base, %t under the hole assignment", router, checks[i].Req, checks[i].Holds, want)
					}
					compared++
				}
			}
		})
	}
	t.Logf("%d clauses compared, %d on routers the reference cannot map", compared, unmapped)
	if compared == 0 || unmapped == 0 {
		t.Fatalf("%d clauses compared and %d unmapped; want both", compared, unmapped)
	}
}

// holeAssignment maps each hole variable of the encoding to the value
// its field has in the deployed configuration, with the sorts the
// encoder assigned. A field on a route map no candidate path crosses
// has no variable and is skipped.
func holeAssignment(enc *synth.Encoding, c *config.Config, targets []Target) (logic.Assignment, error) {
	assign := logic.Assignment{}
	for _, t := range targets {
		v, ok := enc.HoleVars[t.HoleName()]
		if !ok {
			continue
		}
		val, err := holeValue(v, c, t)
		if err != nil {
			return nil, err
		}
		assign[v.Name] = val
	}
	return assign, nil
}

// holeValue is the encoder's value of the field t in c, for the fields
// the encoding can express.
func holeValue(v *logic.Var, c *config.Config, t Target) (logic.Value, error) {
	var cl *config.Clause
	for _, cand := range c.RouteMaps[t.Map].Clauses {
		if cand.Seq == t.Seq {
			cl = cand
		}
	}
	switch t.Field {
	case FieldAction:
		return logic.EnumValue(v.S, cl.Action.String()), nil
	case FieldMatch:
		switch m := cl.Matches[t.Index]; m.Kind {
		case config.MatchPrefixList:
			pl := c.PrefixLists[m.PrefixList]
			if len(pl.Entries) != 1 || pl.Entries[0].Action != config.Permit {
				return logic.Value{}, fmt.Errorf("prefix-list %q is not a single-permit list", m.PrefixList)
			}
			return logic.EnumValue(v.S, pl.Entries[0].Prefix.String()), nil
		case config.MatchCommunity:
			return logic.EnumValue(v.S, "c"+m.Community.String()), nil
		case config.MatchNextHopIs:
			return logic.EnumValue(v.S, m.NextHop), nil
		}
	case FieldSet:
		switch s := cl.Sets[t.Index]; s.Kind {
		case config.SetLocalPref:
			rank, err := synth.EncodeLP(s.LocalPref)
			if err != nil {
				return logic.Value{}, err
			}
			return logic.IntValue(rank), nil
		case config.SetCommunity:
			return logic.EnumValue(v.S, "c"+s.Community.String()), nil
		case config.SetMED:
			if s.MED < 0 || int64(s.MED) > synth.LPRankHi {
				return logic.Value{}, fmt.Errorf("MED %d outside the encoded domain", s.MED)
			}
			return logic.IntValue(int64(s.MED)), nil
		case config.SetNextHopIP:
			if _, ok := v.S.ValueIndex(s.NextHopIP); !ok {
				return logic.Value{}, fmt.Errorf("next-hop %q outside the encoded vocabulary", s.NextHopIP)
			}
			return logic.EnumValue(v.S, s.NextHopIP), nil
		}
	}
	return logic.Value{}, fmt.Errorf("unsupported field %v", t.Field)
}

func TestCheckSubspecCatchesBrokenEdit(t *testing.T) {
	// The administrator's "I want to make changes to R1" moment: an
	// edit that re-permits the provider routes violates the
	// subspecification — without re-running global verification.
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	ex, err := e.ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}

	// Break R1: change the catch-all deny to permit.
	broken := config.Deployment{}
	for n, c := range dep {
		broken[n] = c
	}
	edited := dep["R1"].Clone()
	rm := edited.RouteMaps["R1_to_P1"]
	rm.Clauses[len(rm.Clauses)-1].Action = config.Permit
	broken["R1"] = edited

	e2, err := NewExplainer(sc.Net, sc.Requirements(), broken, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if allHold(t, e2, "R1", ex.Subspec) {
		t.Fatal("broken edit should violate the subspecification")
	}
	checks, err := e2.CheckSubspec("R1", ex.Subspec)
	if err != nil {
		t.Fatal(err)
	}
	failing := 0
	for _, ch := range checks {
		if !ch.Holds {
			failing++
		}
	}
	if failing == 0 {
		t.Fatal("no failing clause reported")
	}
	if FormatChecks(checks) == "" {
		t.Fatal("FormatChecks empty")
	}
}

func TestCheckSubspecErrors(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	if _, err := e.CheckSubspec("R9", &spec.Block{Name: "R9"}); err == nil {
		t.Fatal("unknown router should fail")
	}
	// A pattern matching no route is an error, not silently true.
	badBlock := &spec.Block{Name: "R1", Reqs: []spec.Requirement{
		&spec.Forbid{Path: spec.NewPath("P2", "P1")}, // no such link
	}}
	if _, err := e.CheckSubspec("R1", badBlock); err == nil {
		t.Fatal("non-occurring pattern should fail")
	}
	// A preference whose route does not start at the device fails.
	badPref := &spec.Block{Name: "R1", Reqs: []spec.Requirement{
		&spec.Preference{Paths: []spec.Path{
			spec.NewPath("C", "R3", "R1"),
			spec.NewPath("C", "R3", "R2", "R1"),
		}},
	}}
	if _, err := e.CheckSubspec("R1", badPref); err == nil {
		t.Fatal("preference not anchored at the device should fail")
	}
}

func TestSubspecScope(t *testing.T) {
	// Figure 5's header: the R2 subspecification for no-transit is
	// scoped to the P2 interface.
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	noTransit := sc.Spec.Block("Req1")
	ex, err := newExplainer(t, sc, dep, noTransit.Reqs).ExplainAll("R2")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Subspec.Scope != "P2" {
		t.Fatalf("scope = %q, want P2 (block: %s)", ex.Subspec.Scope, spec.PrintBlock(ex.Subspec))
	}
	if ex.Subspec.Title() != "R2 to P2" {
		t.Fatalf("title = %q", ex.Subspec.Title())
	}
	// Scenario 2's R3 block mixes preferences and import drops: no
	// scope.
	sc2 := scenarios.Scenario2()
	dep2 := synthScenario(t, sc2)
	ex2, err := newExplainer(t, sc2, dep2, nil).ExplainAll("R3")
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Subspec.Scope != "" {
		t.Fatalf("mixed block should have no scope, got %q", ex2.Subspec.Scope)
	}
}

func TestCheckSubspecPreferenceClause(t *testing.T) {
	// Scenario 2's preference clause validates against R3's config.
	sc := scenarios.Scenario2()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	block := &spec.Block{Name: "R3", Reqs: []spec.Requirement{
		&spec.Preference{Paths: []spec.Path{
			spec.NewPath("R3", "R1", "P1", "D1"),
			spec.NewPath("R3", "R2", "P2", "D1"),
		}},
	}}
	if !allHold(t, e, "R3", block) {
		t.Fatal("synthesized R3 must satisfy the preference clause")
	}
	// The reversed preference must fail.
	rev := &spec.Block{Name: "R3", Reqs: []spec.Requirement{
		&spec.Preference{Paths: []spec.Path{
			spec.NewPath("R3", "R2", "P2", "D1"),
			spec.NewPath("R3", "R1", "P1", "D1"),
		}},
	}}
	if allHold(t, e, "R3", rev) {
		t.Fatal("reversed preference should not hold")
	}
}

func TestInterpretation2SubspecHasNoDrops(t *testing.T) {
	// Under interpretation (2) the unlisted detours stay configured-in
	// as last resorts, so the Figure 4 drop clauses must vanish from
	// R3's subspecification — only preferences remain.
	sc := scenarios.Scenario2()
	opts := synthOpts()
	opts.AllowUnspecified = true
	res, err := synthWith(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	copts := DefaultOptions()
	copts.Synth = opts
	e, err := NewExplainer(sc.Net, sc.Requirements(), res, copts)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.ExplainAll("R3")
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Subspec.Forbids()) != 0 {
		t.Fatalf("interp-2 subspec should have no drops: %v", subspecStrings(ex.Subspec))
	}
	if len(ex.Subspec.Preferences()) == 0 {
		t.Fatalf("interp-2 subspec should keep the preferences: %v", subspecStrings(ex.Subspec))
	}
}
