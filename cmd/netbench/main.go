// netbench regenerates the paper's evaluation: every figure and
// quantitative claim, plus the scaling and ablation extensions, as
// text tables or, with -format json, as JSON.
//
//	netbench                           # all experiments
//	netbench -table seed               # one experiment
//	netbench -quick                    # trimmed scaling sweep
//	netbench -table scale -format json # whole-network streaming-report scaling as JSON
//	netbench -cpuprofile cpu.pprof     # profile the run
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process glue factored out. Exit codes follow
// the shared cmd convention: 0 success, 1 operational failure,
// 2 usage error (bad flags, unknown -table or -format value).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all",
		"experiment to run: seed, simplify, linearity, pervar, figures, interpretation, ablation, rules, complement, rewrite, lift, sat, scale, diff, all")
	quick := fs.Bool("quick", false, "trim the scaling sweep")
	format := fs.String("format", "text", "output format: text or json")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (e.g. 30s, 5m; 0 = no limit)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "netbench: unknown format %q (want text or json)\n", *format)
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "netbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "netbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "netbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "netbench:", err)
			}
		}()
	}

	emit := func(tables []*bench.Table) int {
		if *format == "json" {
			payload := make([]map[string]any, len(tables))
			for i, t := range tables {
				payload[i] = t.JSON()
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(payload); err != nil {
				fmt.Fprintln(stderr, "netbench:", err)
				return 1
			}
			return 0
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.Render())
		}
		return 0
	}
	one := func(t *bench.Table, err error) int {
		if err != nil {
			fmt.Fprintln(stderr, "netbench:", err)
			return 1
		}
		return emit([]*bench.Table{t})
	}

	switch *table {
	case "seed":
		return one(bench.SeedTable(ctx))
	case "simplify":
		return one(bench.SimplifyTable(ctx))
	case "linearity":
		return one(bench.LinearityTable(ctx))
	case "pervar":
		return one(bench.PerVarTable(ctx))
	case "figures":
		return one(bench.FigureTable(ctx))
	case "interpretation":
		return one(bench.InterpretationTable(ctx))
	case "ablation":
		return one(bench.AblationTable(ctx))
	case "rules":
		return one(bench.RuleFireTable(ctx))
	case "complement":
		return one(bench.ComplementTable(ctx))
	case "lift":
		return one(bench.LiftTable(ctx))
	case "rewrite":
		return one(bench.RewriteTable(ctx))
	case "sat":
		return one(bench.SatTable(ctx))
	case "scale":
		return one(bench.ScaleTable(ctx, *quick))
	case "diff":
		return one(bench.DiffTable(ctx, *quick))
	case "all":
		tables, err := bench.All(ctx, *quick)
		if err != nil {
			fmt.Fprintln(stderr, "netbench:", err)
			return 1
		}
		return emit(tables)
	default:
		fmt.Fprintf(stderr, "netbench: unknown table %q\n", *table)
		return 2
	}
}
