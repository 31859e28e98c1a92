package bench

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/smt"
	"repro/internal/spec"
	"repro/internal/synth"
)

// synthesizeScenario synthesizes one scenario (shared helper).
func synthesizeScenario(ctx context.Context, sc *scenarios.Scenario) (*synth.Result, error) {
	return synth.SynthesizeContext(ctx, sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
}

// SeedTable reproduces claim §4-C1: seed specifications exceed 1000
// constraints even on the simple Figure 1b scenarios. Reported per
// scenario: encoder constraints, constraint atoms, SAT clauses after
// bit-blasting, hole and selection variables.
func SeedTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "seed (§4-C1)",
		Caption: "Seed specification sizes per scenario. Paper: 'more than 1000 constraints even in the simple scenario'.",
		Columns: []string{"scenario", "constraints", "atoms", "sat-clauses", "sat-vars", "holes", "sel-vars"},
	}
	for _, sc := range scenarios.All() {
		enc, err := synth.NewEncoder(sc.Net, sc.Sketch, synth.DefaultOptions()).EncodeContext(ctx, sc.Requirements())
		if err != nil {
			return nil, err
		}
		s := smt.NewSolver()
		if err := s.AssertAll(enc.Constraints); err != nil {
			return nil, err
		}
		t.AddRow(sc.Name, enc.Stats.Constraints, enc.Stats.ConstraintSize,
			s.NumSATClauses(), s.NumSATVars(), enc.Stats.HoleVars, enc.Stats.SelVars)
	}
	return t, nil
}

// SimplifyTable reproduces claim §4-C2: simplification reduces the
// seed to a few constraints. Reported per (scenario, router): seed
// atoms, simplified atoms, residual atoms over the device's variables,
// and the reduction factor.
func SimplifyTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "simplify (§4-C2, Figure 6)",
		Caption: "Rewrite-rule simplification of the seed, explaining each router in full. Paper: reduction 'resulted in only a few constraints'.",
		Columns: []string{"scenario", "router", "seed-atoms", "simplified", "residual", "reduction", "passes", "subspec-clauses"},
	}
	for _, sc := range scenarios.All() {
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return nil, err
		}
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		for _, router := range []string{"R1", "R2", "R3"} {
			e, err := ex.ExplainAllContext(ctx, router)
			if err != nil {
				return nil, err
			}
			clauses := 0
			if e.Subspec != nil {
				clauses = len(e.Subspec.Reqs)
			}
			t.AddRow(sc.Name, router, e.SeedSize, e.SimplifiedSize, e.ResidualSize,
				fmt.Sprintf("%.0fx", e.Reduction()), e.Passes, clauses)
		}
	}
	return t, nil
}

// LinearityTable reproduces claim §4-C3: subspecification size is
// linear in the number of symbolic configuration variables. R1's
// fields in scenario 3 are symbolized one more at a time.
func LinearityTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "linearity (§4-C3)",
		Caption: "Residual subspecification size vs number of symbolized variables at R1 (scenario 3). Paper: 'linear in relation to the configuration variables in question'.",
		Columns: []string{"symbolized-vars", "residual-atoms", "residual-conjuncts", "atoms-per-var"},
	}
	sc := scenarios.Scenario3()
	res, err := synthesizeScenario(ctx, sc)
	if err != nil {
		return nil, err
	}
	ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	all := core.AllTargets(res.Deployment["R1"])
	opts := core.DefaultOptions()
	opts.Lift = false // size measurement only
	exNoLift, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
	if err != nil {
		return nil, err
	}
	_ = ex
	for n := 1; n <= len(all); n++ {
		e, err := exNoLift.ExplainContext(ctx, "R1", all[:n])
		if err != nil {
			return nil, err
		}
		perVar := float64(e.ResidualSize) / float64(n)
		t.AddRow(n, e.ResidualSize, len(e.Residual), perVar)
	}
	return t, nil
}

// PerVarTable reproduces claim §4-C4: one-variable-at-a-time
// explanations stay small and interpretable. Every field of R1 in
// scenario 1 is explained on its own.
func PerVarTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "pervar (§4-C4)",
		Caption: "Per-variable explanations of R1 (scenario 1). Paper: 'generating and inspecting sub-specifications one variable at a time was an effective strategy'.",
		Columns: []string{"variable", "was", "residual-atoms", "constraint"},
	}
	sc := scenarios.Scenario1()
	res, err := synthesizeScenario(ctx, sc)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Lift = false
	ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
	if err != nil {
		return nil, err
	}
	for _, tgt := range core.AllTargets(res.Deployment["R1"]) {
		e, err := ex.ExplainContext(ctx, "R1", []core.Target{tgt})
		if err != nil {
			return nil, err
		}
		text := e.ResidualText()
		if len(e.Residual) == 0 {
			text = "(unconstrained: redundant line)"
		} else if len(text) > 60 {
			text = text[:57] + "..."
		}
		t.AddRow(tgt.HoleName(), e.Replaced[tgt.HoleName()], e.ResidualSize, text)
	}
	return t, nil
}

// FigureTable regenerates the content of Figures 2, 4, and 5: the
// lifted subspecifications for the scenario/router pairs the paper
// shows.
func FigureTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "figures (Fig. 2, 4, 5)",
		Caption: "Lifted subspecifications for the routers the paper's figures show (forbids in route order, preferences in traffic order).",
		Columns: []string{"figure", "scenario", "router", "subspecification", "complete"},
	}
	type q struct {
		figure, scenario, router string
		reqsOf                   func(*scenarios.Scenario) []spec.Requirement
	}
	queries := []q{
		{"Fig. 2", "scenario1", "R1", func(sc *scenarios.Scenario) []spec.Requirement { return sc.Requirements() }},
		{"Fig. 4", "scenario2", "R3", func(sc *scenarios.Scenario) []spec.Requirement { return sc.Requirements() }},
		{"Fig. 5", "scenario3", "R2", func(sc *scenarios.Scenario) []spec.Requirement { return sc.Spec.Block("Req1").Reqs }},
		{"Fig. 5 (empty)", "scenario3", "R3", func(sc *scenarios.Scenario) []spec.Requirement { return sc.Spec.Block("Req1").Reqs }},
	}
	for _, query := range queries {
		sc, err := scenarios.ByName(query.scenario)
		if err != nil {
			return nil, err
		}
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return nil, err
		}
		ex, err := core.NewExplainer(sc.Net, query.reqsOf(sc), res.Deployment, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		e, err := ex.ExplainAllContext(ctx, query.router)
		if err != nil {
			return nil, err
		}
		text := "{ }"
		if !e.Subspec.IsEmpty() {
			var parts []string
			for _, r := range e.Subspec.Reqs {
				parts = append(parts, r.String())
			}
			sort.Strings(parts)
			text = parts[0]
			for _, p := range parts[1:] {
				text += " ; " + p
			}
		}
		t.AddRow(query.figure, query.scenario, query.router, text, e.SubspecComplete)
	}
	return t, nil
}

// InterpretationTable quantifies the Scenario 2 ambiguity (Figure 3/4
// discussion): reachability of D1 from C under double link failures,
// for the two interpretations of the preference.
func InterpretationTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "interpretation (Scenario 2)",
		Caption: "C->D1 reachability under double link failures for the two preference interpretations. Interpretation (1) blocks unlisted paths (less redundancy).",
		Columns: []string{"interpretation", "reachable-after-failure", "total-double-failures"},
	}
	sc := scenarios.Scenario2()
	links := [][2]string{{"R3", "R1"}, {"R3", "R2"}, {"R1", "P1"}, {"R2", "P2"}}
	for _, allow := range []bool{false, true} {
		opts := synth.DefaultOptions()
		opts.AllowUnspecified = allow
		res, err := synth.SynthesizeContext(ctx, sc.Net, sc.Sketch, sc.Requirements(), opts)
		if err != nil {
			return nil, err
		}
		reach, total := 0, 0
		d1 := sc.Net.Router("D1").Prefix
		for i := 0; i < len(links); i++ {
			for j := i + 1; j < len(links); j++ {
				total++
				failed := sc.Net.Clone()
				failed.RemoveLink(links[i][0], links[i][1])
				failed.RemoveLink(links[j][0], links[j][1])
				sim, err := bgp.Simulate(failed, res.Deployment)
				if err != nil {
					return nil, err
				}
				if sim.Reachable("C", d1) {
					reach++
				}
			}
		}
		name := "(1) block unlisted"
		if allow {
			name = "(2) last resort"
		}
		t.AddRow(name, reach, total)
	}
	return t, nil
}

// AblationTable measures what the simplification machinery
// contributes: full rule set, without equality propagation (S14), and
// a single pass instead of the fixpoint.
func AblationTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ablation (simplifier)",
		Caption: "Simplified size of scenario 3's R1 seed under ablated simplifiers.",
		Columns: []string{"configuration", "simplified-atoms", "passes"},
	}
	sc := scenarios.Scenario3()
	res, err := synthesizeScenario(ctx, sc)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Lift = false
	ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
	if err != nil {
		return nil, err
	}
	e, err := ex.ExplainContext(ctx, "R1", core.AllTargets(res.Deployment["R1"]))
	if err != nil {
		return nil, err
	}
	seed := e.Seed

	run := func(name string, s *rewrite.Simplifier) {
		out := s.Simplify(seed)
		t.AddRow(name, logic.Size(out), s.Passes)
	}
	run("full (15 rules, fixpoint)", rewrite.New())
	noEq := rewrite.New()
	noEq.DisableEqPropagation = true
	run("without S14 eq-propagation", noEq)
	onePass := rewrite.New()
	onePass.MaxPasses = 1
	run("single pass", onePass)
	t.AddRow("unsimplified seed", logic.Size(seed), 0)
	return t, nil
}

// RuleFireTable reports which of the fifteen rules carry the
// simplification (per scenario, explaining R1 fully). The counts come
// from a counting run over R1's seed (rewrite.CountFires): the report
// path counts no rule fires.
func RuleFireTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "rules (15 rewrite rules)",
		Caption: "Rule fire counts while simplifying the R1 seed of each scenario.",
		Columns: []string{"rule", "scenario1", "scenario2", "scenario3"},
	}
	counts := make([]map[rewrite.RuleName]int, 0, 3)
	for _, sc := range scenarios.All() {
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.Lift = false
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
		if err != nil {
			return nil, err
		}
		e, err := ex.ExplainAllContext(ctx, "R1")
		if err != nil {
			return nil, err
		}
		fires, _ := rewrite.CountFires(e.Seed)
		counts = append(counts, fires)
	}
	for _, r := range rewrite.AllRules {
		t.AddRow(string(r), counts[0][r], counts[1][r], counts[2][r])
	}
	return t, nil
}

// ComplementTable runs the Section 5 extension: for each scenario,
// hold R3 fixed and report what the rest of the network must
// guarantee (the assume/guarantee split the paper sketches under
// "High-level summary of the global behaviors").
func ComplementTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "complement (extension, paper §5)",
		Caption: "Assume/guarantee view: holding R3 fixed, residual constraints on every other router.",
		Columns: []string{"scenario", "seed-atoms", "simplified", "router", "assumptions"},
	}
	for _, sc := range scenarios.All() {
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return nil, err
		}
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		comp, err := ex.ExplainComplementContext(ctx, "R3")
		if err != nil {
			return nil, err
		}
		routers := comp.Routers()
		if len(routers) == 0 {
			t.AddRow(sc.Name, comp.SeedSize, comp.SimplifiedSize, "-", 0)
			continue
		}
		for _, r := range routers {
			t.AddRow(sc.Name, comp.SeedSize, comp.SimplifiedSize, r, len(comp.Assumptions[r]))
		}
	}
	return t, nil
}

// All returns every experiment table. quick trims the scaling sweep
// and restricts the diff benchmark to the seed scenarios.
func All(ctx context.Context, quick bool) ([]*Table, error) {
	builders := []func(context.Context) (*Table, error){
		SeedTable, SimplifyTable, LinearityTable, PerVarTable,
		FigureTable, InterpretationTable, AblationTable, RuleFireTable,
		ComplementTable, RewriteTable,
		func(ctx context.Context) (*Table, error) { return ScaleTable(ctx, quick) },
		func(ctx context.Context) (*Table, error) { return DiffTable(ctx, quick) },
	}
	var out []*Table
	for _, b := range builders {
		t, err := b(ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
