package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/synth"
	"repro/internal/verify"
)

// SatTable measures the CDCL core under the full explanation pipeline:
// the three seed scenarios plus the netgen Grid/FatTree/Random presets
// (which are far bigger than anything the paper evaluates), with the
// lifting step on so the SAT solver is the bottleneck. The per-solver
// counters — binary propagations, learnt-clause glue, minimized
// literals, restart behavior, tier sizes — are the observability half
// of BENCH_satcore.json; the wall-clock columns are the speed half.
// The synthesis solve's conflicts and restarts are counted beside the
// explanation's, since both run on the same CDCL core.
func SatTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "satcore (extension Ext-3)",
		Caption: "CDCL core behavior across seed scenarios and netgen workloads (lift on). synth-conflicts and synth-restarts count the synthesis solve; every other counter covers the explanation. explain-ms covers every configured router through one session; bin-props is the share of propagations served by the binary implication lists; min-lits the learnt literals removed by minimization; avg-lbd the mean glue; tiers the peak core/mid/local learnt-database split.",
		Columns: []string{"workload", "synth-ms", "synth-conflicts", "synth-restarts", "explain-ms", "solves", "conflicts", "props", "bin-props", "restarts", "blocked", "learnts", "min-lits", "avg-lbd", "tiers"},
	}

	type job struct {
		name string
		run  func() (*core.Explainer, *synth.Result, float64, error) // explainer, synthesis, synth-ms
	}
	var jobs []job
	for _, sc := range scenarios.All() {
		sc := sc
		jobs = append(jobs, job{name: sc.Name, run: func() (*core.Explainer, *synth.Result, float64, error) {
			start := time.Now()
			res, err := synthesizeScenario(ctx, sc)
			if err != nil {
				return nil, nil, 0, err
			}
			synthMS := float64(time.Since(start).Microseconds()) / 1000
			ex, err := core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, core.DefaultOptions())
			return ex, res, synthMS, err
		}})
	}
	for _, wl := range satWorkloads() {
		wl := wl
		jobs = append(jobs, job{name: wl.Name, run: func() (*core.Explainer, *synth.Result, float64, error) {
			opts := synth.DefaultOptions()
			opts.MaxPathLen = 7
			opts.MaxCandidatesPerNode = 8
			start := time.Now()
			res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), opts)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("%s: %w", wl.Name, err)
			}
			synthMS := float64(time.Since(start).Microseconds()) / 1000
			if ok, err := verify.SatisfiesContext(ctx, wl.Net, res.Deployment, wl.Requirements()); err != nil || !ok {
				return nil, nil, 0, fmt.Errorf("%s: synthesized deployment does not verify (%v)", wl.Name, err)
			}
			copts := core.DefaultOptions()
			copts.Synth = opts
			ex, err := core.NewExplainer(wl.Net, wl.Requirements(), res.Deployment, copts)
			return ex, res, synthMS, err
		}})
	}

	for _, j := range jobs {
		ex, res, synthMS, err := j.run()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := ex.ReportContext(ctx); err != nil {
			return nil, fmt.Errorf("%s report: %w", j.name, err)
		}
		explainMS := float64(time.Since(start).Microseconds()) / 1000
		st := ex.Stats()
		avgLBD := 0.0
		if st.Learnt > 0 {
			avgLBD = float64(st.LBDSum) / float64(st.Learnt)
		}
		t.AddRow(j.name,
			fmt.Sprintf("%.1f", synthMS), res.SolverStats.Conflicts, res.SolverStats.Restarts,
			fmt.Sprintf("%.1f", explainMS),
			st.Solves, st.Conflicts, st.Propagations, st.BinPropagations,
			st.Restarts, st.BlockedRestarts, st.Learnt, st.MinimizedLits,
			fmt.Sprintf("%.2f", avgLBD),
			fmt.Sprintf("%d/%d/%d", st.CoreLearnts, st.MidLearnts, st.LocalLearnts))
	}
	return t, nil
}

// satWorkloads returns the netgen presets the satcore benchmark runs:
// deliberately larger than the scaling sweep's, since the CDCL upgrade
// targets exactly the instances where search dominates.
func satWorkloads() []*netgen.Workload {
	var out []*netgen.Workload
	if wl, err := netgen.Grid(4, 4, false); err == nil {
		out = append(out, wl)
	}
	if wl, err := netgen.FatTree(4, false); err == nil {
		out = append(out, wl)
	}
	if wl, err := netgen.Random(24, 3.0, 42, false); err == nil {
		out = append(out, wl)
	}
	return out
}
