// netverify checks a deployment against a specification by BGP
// simulation, optionally under single-link failure injection.
//
//	netverify -scenario scenario2            # synthesize, then verify
//	netverify -scenario scenario2 -failures  # also check preference fallbacks
//	netverify -scenario scenario1 -rib       # dump the converged routing state
//	netverify -scenario scenario1 -proof     # explanation report, every Unsat proof-checked
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process glue factored out: flags come from args,
// output goes to the given writers, and the exit code is returned.
// Exit codes follow the shared cmd convention: 0 success, 1 operational
// failure (including verification violations and rejected proofs),
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "scenario1", "paper scenario: scenario1, scenario2, scenario3")
	failures := fs.Bool("failures", false, "check path preferences under single-link failures")
	allFailures := fs.Bool("allfailures", false, "re-check forbids under every single-link failure")
	interp2 := fs.Bool("interp2", false, "tolerate unlisted fallback paths (interpretation 2)")
	rib := fs.Bool("rib", false, "dump the converged routing state")
	proof := fs.Bool("proof", false, "generate the explanation report with every Unsat verdict proof-checked")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc, err := scenarios.ByName(*scenario)
	if err != nil {
		fmt.Fprintln(stderr, "netverify:", err)
		return 2
	}
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		fmt.Fprintln(stderr, "netverify:", err)
		return 1
	}
	if *rib {
		sim, err := bgp.Simulate(sc.Net, res.Deployment)
		if err != nil {
			fmt.Fprintln(stderr, "netverify:", err)
			return 1
		}
		fmt.Fprint(stdout, sim.Dump())
		fmt.Fprintln(stdout)
	}
	vs, err := verify.Check(sc.Net, res.Deployment, sc.Requirements())
	if err != nil {
		fmt.Fprintln(stderr, "netverify:", err)
		return 1
	}
	bad := len(vs)
	for _, v := range vs {
		fmt.Fprintf(stdout, "VIOLATION: %s\n", v)
	}
	if *failures {
		for _, r := range sc.Requirements() {
			pref, ok := r.(*spec.Preference)
			if !ok {
				continue
			}
			fvs, err := verify.CheckUnderFailures(sc.Net, res.Deployment, pref, *interp2)
			if err != nil {
				fmt.Fprintln(stderr, "netverify:", err)
				return 1
			}
			bad += len(fvs)
			for _, v := range fvs {
				fmt.Fprintf(stdout, "FAILURE VIOLATION: %s\n", v)
			}
		}
	}
	if *allFailures {
		fvs, err := verify.CheckUnderAllFailures(sc.Net, res.Deployment, sc.Requirements())
		if err != nil {
			fmt.Fprintln(stderr, "netverify:", err)
			return 1
		}
		bad += len(fvs)
		for _, v := range fvs {
			fmt.Fprintf(stdout, "FAILURE VIOLATION: %s\n", v)
		}
	}
	if *proof {
		if code := runProof(sc, res.Deployment, stdout, stderr); code != 0 {
			return code
		}
	}
	if bad == 0 {
		fmt.Fprintln(stdout, "all requirements hold")
		return 0
	}
	return 1
}

// runProof generates the full explanation report with proof
// verification on: the SAT core logs a DRAT-style trace, and every
// Unsat verdict the report rests on must be accepted by the
// independent checker in internal/drat before the report is printed.
// The report body is identical to an unverified run; the proof
// statistics are appended as one comment line so the report itself
// stays byte-comparable.
func runProof(sc *scenarios.Scenario, dep config.Deployment, stdout, stderr io.Writer) int {
	opts := core.DefaultOptions()
	opts.VerifyProofs = true
	e, err := core.NewExplainer(sc.Net, sc.Requirements(), dep, opts)
	if err != nil {
		fmt.Fprintln(stderr, "netverify:", err)
		return 1
	}
	rep, err := e.Report()
	if err != nil {
		fmt.Fprintln(stderr, "netverify: proof-checked report:", err)
		return 1
	}
	fmt.Fprint(stdout, rep)
	st := e.Stats()
	fmt.Fprintf(stdout, "# proofs: %d unsat verdicts checked (%d trace ops, %d lemmas, %v)\n",
		st.ProofChecks, st.ProofOps, st.ProofLemmas, st.ProofTime)
	return 0
}
