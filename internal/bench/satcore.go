package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/verify"
)

// SatTable measures the CDCL core under the full explanation pipeline:
// the three seed scenarios plus the netgen Grid/FatTree/Random presets
// (which are far bigger than anything the paper evaluates), with the
// lifting step on so the SAT solver is the bottleneck. The per-solver
// counters — propagations, learnt-clause glue, minimized literals,
// restarts and learnt-database reductions — are the
// observability half of BENCH_satcore.json; the wall-clock columns are
// the speed half. The synthesis solve's conflicts and restarts are
// counted beside the explanation's, since both run on the same CDCL
// core.
func SatTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "satcore (extension Ext-3)",
		Caption: "CDCL core behavior across seed scenarios and netgen workloads (lift on). synth-conflicts and synth-restarts count the synthesis solve; every other counter covers the explanation. explain-ms covers every configured router through one session; props counts propagated literals; restarts counts search restarts (Luby schedule, the first after 100 conflicts of a solve); reductions counts learnt-database reductions; min-lits the learnt literals removed by minimization; avg-lbd the mean glue.",
		Columns: []string{"workload", "synth-ms", "synth-conflicts", "synth-restarts", "explain-ms", "solves", "conflicts", "props", "restarts", "reductions", "learnts", "min-lits", "avg-lbd"},
	}

	err := eachWorkload(ctx, false, func(w *workload) error {
		ex, err := core.NewExplainer(w.net, w.reqs, w.res.Deployment, w.opts)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := ex.ReportContext(ctx); err != nil {
			return fmt.Errorf("%s report: %w", w.name, err)
		}
		explainMS := float64(time.Since(start).Microseconds()) / 1000
		st := ex.Stats()
		avgLBD := 0.0
		if st.Learnt > 0 {
			avgLBD = float64(st.LBDSum) / float64(st.Learnt)
		}
		t.AddRow(w.name,
			fmt.Sprintf("%.1f", w.synthMS), w.res.SolverStats.Conflicts, w.res.SolverStats.Restarts,
			fmt.Sprintf("%.1f", explainMS),
			st.Solves, st.Conflicts, st.Propagations,
			st.Restarts, st.Reductions, st.Learnt, st.MinimizedLits,
			fmt.Sprintf("%.2f", avgLBD))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// workload is one of the six synthesized workloads the sat, rewrite and
// diff tables run: its name, network and requirements, the synthesis
// result and wall time, and the explainer options (core.DefaultOptions
// with Synth set to the options the synthesis ran under).
type workload struct {
	name    string
	net     *topology.Network
	reqs    []spec.Requirement
	res     *synth.Result
	synthMS float64
	opts    core.Options
}

// eachWorkload synthesizes the three seed scenarios at synth defaults
// and then, unless quick, the satWorkloads presets at MaxPathLen 7 and
// MaxCandidatesPerNode 8, checking each preset's deployment against its
// requirements. It calls f on each workload as soon as it is
// synthesized and stops at the first error.
func eachWorkload(ctx context.Context, quick bool, f func(*workload) error) error {
	for _, sc := range scenarios.All() {
		start := time.Now()
		res, err := synthesizeScenario(ctx, sc)
		if err != nil {
			return err
		}
		synthMS := float64(time.Since(start).Microseconds()) / 1000
		if err := f(&workload{sc.Name, sc.Net, sc.Requirements(), res, synthMS, core.DefaultOptions()}); err != nil {
			return err
		}
	}
	if quick {
		return nil
	}
	opts := core.DefaultOptions()
	opts.Synth.MaxPathLen = 7
	opts.Synth.MaxCandidatesPerNode = 8
	for _, wl := range satWorkloads() {
		reqs := wl.Requirements()
		start := time.Now()
		res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, reqs, opts.Synth)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		synthMS := float64(time.Since(start).Microseconds()) / 1000
		if ok, err := verify.SatisfiesContext(ctx, wl.Net, res.Deployment, reqs); err != nil || !ok {
			return fmt.Errorf("%s: synthesized deployment does not verify (%v)", wl.Name, err)
		}
		if err := f(&workload{wl.Name, wl.Net, reqs, res, synthMS, opts}); err != nil {
			return err
		}
	}
	return nil
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
