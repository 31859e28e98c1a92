// Package repro_test benchmarks every experiment of the paper's
// evaluation (see DESIGN.md's experiment index): one benchmark per
// figure / claim, plus the scaling and ablation extensions. Custom
// metrics report the quantities the paper discusses (constraint atoms,
// reduction factors, subspec sizes) alongside wall-clock time.
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/rewrite"
	"repro/internal/sat"
	"repro/internal/scenarios"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/verify"
)

// --- Figure 1: the end-to-end pipeline (spec + topology + sketch ->
// synthesized configs -> explanation). ---

func BenchmarkFig1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := scenarios.Scenario1()
		res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.ExplainAll("R1"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4-C1: seed specification size (encode only), per scenario. ---

func BenchmarkSeedSpecSize(b *testing.B) {
	for _, sc := range scenarios.All() {
		b.Run(sc.Name, func(b *testing.B) {
			var atoms int
			for i := 0; i < b.N; i++ {
				enc, err := synth.NewEncoder(sc.Net, sc.Sketch, synth.DefaultOptions()).Encode(sc.Requirements())
				if err != nil {
					b.Fatal(err)
				}
				atoms = enc.Stats.ConstraintSize
			}
			b.ReportMetric(float64(atoms), "atoms")
		})
	}
}

// --- §4-C2 / Figure 6: simplification of the seed. ---

func BenchmarkSimplifyReduction(b *testing.B) {
	for _, sc := range scenarios.All() {
		res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Lift = false
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sc.Name, func(b *testing.B) {
			var reduction float64
			for i := 0; i < b.N; i++ {
				e, err := ex.ExplainAll("R1")
				if err != nil {
					b.Fatal(err)
				}
				reduction = e.Reduction()
			}
			b.ReportMetric(reduction, "reduction_x")
		})
	}
}

// BenchmarkFig6SeedSimplify isolates the rewrite engine on the
// scenario-3 seed (the Figure 6 step 3 operation).
func BenchmarkFig6SeedSimplify(b *testing.B) {
	sc := scenarios.Scenario3()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Lift = false
	ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
	if err != nil {
		b.Fatal(err)
	}
	e, err := ex.ExplainAll("R1")
	if err != nil {
		b.Fatal(err)
	}
	seed := e.Seed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rewrite.New()
		out := s.Simplify(seed)
		if logic.Size(out) >= logic.Size(seed) {
			b.Fatal("no reduction")
		}
	}
}

// --- §4-C3: subspec size vs number of symbolized variables. ---

func BenchmarkSubspecLinearity(b *testing.B) {
	sc := scenarios.Scenario3()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Lift = false
	ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
	if err != nil {
		b.Fatal(err)
	}
	all := core.AllTargets(res.Deployment["R1"])
	for n := 1; n <= len(all); n++ {
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			var residual int
			for i := 0; i < b.N; i++ {
				e, err := ex.Explain("R1", all[:n])
				if err != nil {
					b.Fatal(err)
				}
				residual = e.ResidualSize
			}
			b.ReportMetric(float64(residual), "residual_atoms")
		})
	}
}

// --- §4-C4: per-variable explanation. ---

func BenchmarkPerVariableExplanation(b *testing.B) {
	sc := scenarios.Scenario1()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Lift = false
	ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
	if err != nil {
		b.Fatal(err)
	}
	tgt := core.Target{Map: "R1_to_P1", Seq: 100, Field: core.FieldAction}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Explain("R1", []core.Target{tgt}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 2, 4, 5: full explanation with lifting, per scenario
// router. ---

func BenchmarkLiftedSubspec(b *testing.B) {
	cases := []struct {
		figure, scenario, router string
	}{
		{"fig2", "scenario1", "R1"},
		{"fig4", "scenario2", "R3"},
		{"fig5", "scenario3", "R2"},
	}
	for _, c := range cases {
		sc, err := scenarios.ByName(c.scenario)
		if err != nil {
			b.Fatal(err)
		}
		res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.figure, func(b *testing.B) {
			var clauses int
			for i := 0; i < b.N; i++ {
				e, err := ex.ExplainAll(c.router)
				if err != nil {
					b.Fatal(err)
				}
				if e.Subspec != nil {
					clauses = len(e.Subspec.Reqs)
				}
			}
			b.ReportMetric(float64(clauses), "subspec_clauses")
		})
	}
}

// --- Synthesis itself, per scenario. ---

func BenchmarkSynthesize(b *testing.B) {
	for _, sc := range scenarios.All() {
		b.Run(sc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ext-1: scalability (grid workloads of growing size). ---

func BenchmarkScalability(b *testing.B) {
	opts := synth.DefaultOptions()
	opts.MaxPathLen = 7
	opts.MaxCandidatesPerNode = 8
	for _, g := range [][2]int{{2, 2}, {3, 2}, {3, 3}} {
		b.Run(fmt.Sprintf("grid_%dx%d", g[0], g[1]), func(b *testing.B) {
			wl, err := netgen.Grid(g[0], g[1], false)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), opts)
				if err != nil {
					b.Fatal(err)
				}
				ok, err := verify.Satisfies(wl.Net, res.Deployment, wl.Requirements())
				if err != nil || !ok {
					b.Fatalf("verification failed: %v", err)
				}
			}
		})
	}
}

// --- Substrate microbenchmarks. ---

func BenchmarkBGPSimulation(b *testing.B) {
	net := topology.Paper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.Simulate(net, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSATPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.NewSolver()
		const holes = 7
		pigeons := make([][]sat.Var, holes+1)
		for p := range pigeons {
			pigeons[p] = make([]sat.Var, holes)
			lits := make([]sat.Lit, holes)
			for h := range pigeons[p] {
				pigeons[p][h] = s.NewVar()
				lits[h] = sat.PosLit(pigeons[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 <= holes; p1++ {
				for p2 := p1 + 1; p2 <= holes; p2++ {
					s.AddClause(sat.NegLit(pigeons[p1][h]), sat.NegLit(pigeons[p2][h]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP must be unsat")
		}
	}
}

func BenchmarkRewriteFixpoint(b *testing.B) {
	// A synthetic 600-conjunct seed with one symbolic variable.
	act := logic.NewEnumSort("A", "permit", "deny")
	v := logic.NewEnumVar("x", act)
	var conjuncts []logic.Term
	conjuncts = append(conjuncts, logic.Implies(logic.Eq(v, logic.NewEnum(act, "permit")), logic.False))
	for i := 0; i < 600; i++ {
		n := logic.NewIntVar("k", 0, 100)
		conjuncts = append(conjuncts, logic.Or(
			logic.Le(n, logic.NewInt(100)),
			logic.Eq(n, logic.NewInt(int64(i%50))),
		))
	}
	seed := logic.And(conjuncts...)
	b.ResetTimer()
	var out logic.Term
	for i := 0; i < b.N; i++ {
		out = rewrite.New().Simplify(seed)
	}
	b.StopTimer()
	if _, ok := logic.FreeVars(out)["x"]; !ok {
		b.Fatal("lost the symbolic variable")
	}
}
