// netexplain synthesizes a scenario and generates the localized
// explanation for one router — the paper's end-to-end pipeline.
//
//	netexplain -scenario scenario1 -router R1
//	netexplain -scenario scenario3 -router R2 -req Req1     # per-requirement
//	netexplain -scenario scenario1 -router R1 -var 'R1_to_P1/100/action'
//	netexplain -scenario scenario1 -router R1 -validate -configs edited.cfg
//	netexplain -scenario scenario1 -diff old.cfg new.cfg    # incremental what-if
//	netexplain -rules                                       # list the 15 rules
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process glue factored out. Exit codes follow
// the shared cmd convention: 0 success, 1 operational failure,
// 2 usage error (bad flags, malformed -var, unknown scenario or
// requirement block).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("netexplain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "scenario1", "paper scenario: scenario1, scenario2, scenario3")
	router := fs.String("router", "R1", "router to explain")
	reqName := fs.String("req", "", "explain one requirement block only (e.g. Req1)")
	varSpec := fs.String("var", "", "explain a single field: MAP/SEQ/action | MAP/SEQ/match/I | MAP/SEQ/set/I")
	noLift := fs.Bool("nolift", false, "skip subspecification lifting (print residual constraints only)")
	validate := fs.Bool("validate", false, "validate the deployed configuration against the lifted subspecification")
	configsPath := fs.String("configs", "", "with -validate: validate the deployment in FILE (read as -diff reads its files) against the block lifted from the synthesized one")
	all := fs.Bool("all", false, "print the explanation report for every configured router")
	diff := fs.Bool("diff", false, "incremental what-if: takes two positional config files OLD NEW; topology and intent come from -scenario")
	complement := fs.Bool("complement", false, "explain what the REST of the network must do, holding -router fixed")
	interp2 := fs.Bool("interp2", false, "synthesize and explain under interpretation 2 (unlisted preference paths as last resorts)")
	rules := fs.Bool("rules", false, "list the 15 simplification rules and exit")
	timeout := fs.Duration("timeout", 0, "abort synthesis and explanation after this duration (e.g. 30s; 0 = no limit)")
	outPath := fs.String("o", "", `write output to FILE instead of stdout ("-" = stdout); with -all the report streams as router sections complete`)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "netexplain:", err)
		return 1
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "netexplain:", err)
		return 2
	}

	out := stdout
	if *outPath != "" && *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil && code == 0 {
				code = fail(err)
			}
		}()
		out = f
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *rules {
		for _, r := range rewrite.AllRules {
			fmt.Fprintf(out, "%-20s %s\n", r, rewrite.Describe(r))
		}
		return 0
	}

	sc, err := scenarios.ByName(*scenario)
	if err != nil {
		return usage(err)
	}
	if *configsPath != "" && !*validate {
		return usage(fmt.Errorf("-configs needs -validate"))
	}
	sopts := synth.DefaultOptions()
	sopts.AllowUnspecified = *interp2
	reqs := sc.Requirements()
	if *reqName != "" {
		b := sc.Spec.Block(*reqName)
		if b == nil {
			return usage(fmt.Errorf("no requirement block %q", *reqName))
		}
		reqs = b.Reqs
	}

	opts := core.DefaultOptions()
	opts.Synth = sopts
	opts.Lift = !*noLift

	if *diff {
		// Incremental what-if: explain the OLD deployment (warming the
		// session caches), apply the edit, and re-explain only what the
		// edit touches. The printed report is byte-identical to a cold
		// full report over NEW; the summary shows which sections the
		// report cache answered.
		rest := fs.Args()
		if len(rest) != 2 {
			return usage(fmt.Errorf("-diff needs two positional arguments: old.cfg new.cfg"))
		}
		oldDep, err := readDeployment(rest[0])
		if err != nil {
			return fail(err)
		}
		newDep, err := readDeployment(rest[1])
		if err != nil {
			return fail(err)
		}
		explainer, err := core.NewExplainer(sc.Net, reqs, oldDep, opts)
		if err != nil {
			return fail(err)
		}
		if _, err := explainer.ReportContext(ctx); err != nil {
			return fail(fmt.Errorf("explaining %s: %w", rest[0], err))
		}
		dr, err := explainer.ReExplainContext(ctx, core.Delta{Deployment: newDep})
		if err != nil {
			return fail(fmt.Errorf("re-explaining %s: %w", rest[1], err))
		}
		fmt.Fprint(out, dr.Report)
		fmt.Fprintln(out)
		fmt.Fprint(out, dr.Summary)
		return 0
	}

	res, err := synth.SynthesizeContext(ctx, sc.Net, sc.Sketch, sc.Requirements(), sopts)
	if err != nil {
		return fail(err)
	}
	explainer, err := core.NewExplainer(sc.Net, reqs, res.Deployment, opts)
	if err != nil {
		return fail(err)
	}

	if *all {
		// Stream the report: sections reach the writer in router order
		// as the worker pool completes them, so wide networks produce
		// output long before the last router is explained. On error the
		// stream ends cleanly at a section boundary.
		if _, err := explainer.WriteReport(ctx, out); err != nil {
			return fail(err)
		}
		return 0
	}
	if *complement {
		comp, err := explainer.ExplainComplementContext(ctx, *router)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "holding %s fixed, the rest of the network must guarantee:\n", *router)
		fmt.Fprintf(out, "(seed %d atoms -> %d after %d passes)\n\n", comp.SeedSize, comp.SimplifiedSize, comp.Passes)
		for _, r := range comp.Routers() {
			fmt.Fprintf(out, "--- %s ---\n", r)
			for _, c := range comp.Assumptions[r] {
				fmt.Fprintf(out, "  %s\n", c)
			}
		}
		return 0
	}

	var ex *core.Explanation
	if *varSpec != "" {
		tgt, err := parseTarget(*varSpec)
		if err != nil {
			return usage(err)
		}
		ex, err = explainer.ExplainContext(ctx, *router, []core.Target{tgt})
		if err != nil {
			return fail(err)
		}
	} else {
		ex, err = explainer.ExplainAllContext(ctx, *router)
		if err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(out, "router %s: %d symbolic variables\n", ex.Router, len(ex.HoleVars))
	names := make([]string, 0, len(ex.Replaced))
	for name := range ex.Replaced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %s (was %s)\n", name, ex.Replaced[name])
	}
	fmt.Fprintf(out, "\nseed specification: %d constraints, %d atoms\n", ex.SeedConstraints, ex.SeedSize)
	fmt.Fprintf(out, "simplified (%d passes): %d atoms, reduction %.0fx\n", ex.Passes, ex.SimplifiedSize, ex.Reduction())
	fmt.Fprintf(out, "\nresidual constraints on %s's variables:\n%s\n", ex.Router, indent(ex.ResidualText()))
	if ex.Subspec != nil {
		fmt.Fprintf(out, "\nsubspecification:\n%s", spec.PrintBlock(ex.Subspec))
		if ex.SubspecComplete {
			fmt.Fprintln(out, "(verified complete: necessary and sufficient)")
		} else {
			fmt.Fprintln(out, "(necessary; sufficiency not fully verified)")
		}
		if *validate && !ex.Subspec.IsEmpty() {
			// The block lifted from the synthesized deployment is checked
			// against the deployment in -configs, when given: an edited
			// configuration is validated locally, as the paper proposes.
			checker, what := explainer, "the deployed configuration"
			if *configsPath != "" {
				dep, err := readDeployment(*configsPath)
				if err != nil {
					return fail(err)
				}
				if checker, err = core.NewExplainer(sc.Net, reqs, dep, opts); err != nil {
					return fail(err)
				}
				what = "the configuration in " + *configsPath
			}
			checks, err := checker.CheckSubspecContext(ctx, *router, ex.Subspec)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(out, "\nvalidating %s against the subspecification:\n%s", what, core.FormatChecks(checks))
		}
	}
	return 0
}

// readDeployment loads a multi-router configuration file (stanzas
// split at "router bgp" lines).
func readDeployment(path string) (config.Deployment, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dep, err := config.ParseDeployment(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return dep, nil
}

// parseTarget parses MAP/SEQ/action, MAP/SEQ/match/I, MAP/SEQ/set/I.
func parseTarget(s string) (core.Target, error) {
	parts := strings.Split(s, "/")
	if len(parts) < 3 {
		return core.Target{}, fmt.Errorf("bad -var %q", s)
	}
	seq, err := strconv.Atoi(parts[1])
	if err != nil {
		return core.Target{}, fmt.Errorf("bad clause sequence %q", parts[1])
	}
	t := core.Target{Map: parts[0], Seq: seq}
	switch parts[2] {
	case "action":
		t.Field = core.FieldAction
		return t, nil
	case "match", "set":
		if len(parts) != 4 {
			return core.Target{}, fmt.Errorf("%s target needs an index: MAP/SEQ/%s/I", parts[2], parts[2])
		}
		idx, err := strconv.Atoi(parts[3])
		if err != nil {
			return core.Target{}, fmt.Errorf("bad index %q", parts[3])
		}
		t.Index = idx
		if parts[2] == "match" {
			t.Field = core.FieldMatch
		} else {
			t.Field = core.FieldSet
		}
		return t, nil
	}
	return core.Target{}, fmt.Errorf("field must be action, match, or set")
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
