package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// settings is one invocation's settings.
type settings struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	jsonOut  string
	// part and parts: this process runs share part of parts (see share).
	part, parts int
	// root is the repository checkout (it holds internal/core/testdata).
	root  string
	sizes sizes
}

// workloads runs in this order when no -workload is given. parts is how
// many child processes an untraced run is split over, one after
// another, their samples pooled: a run then sets up several times and
// reports the median set-up and peak RSS over its processes, and its op
// timings average over processes (consecutive paper-cli processes on
// the same inputs differed by up to 15% in median op time on the
// reference host). serve-mix runs as one process, so that one server
// sees the whole run's traffic and its caches and session pool fill and
// evict as a long-running server's do; it sets up several times in that
// process instead (see serveSetups).
var workloads = []struct {
	name  string
	run   func(*runner) error
	parts int
}{
	{"paper-cli", runPaperCLI, 4},
	{"fabric-stream", runFabricStream, 4},
	{"whatif-edits", runWhatIf, 3},
	{"serve-mix", runServeMix, 1},
}

// deadline bounds a run, so a hung call fails it well inside the three
// minutes a run may take.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags and runs one workload, or with no -workload every
// workload in turn, each in a child process of its own. Exit codes: 0
// success, 1 a failed run or output check, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-cli, fabric-stream, whatif-edits or serve-mix (default: each in turn, one child process each)")
	seed := fs.Int64("seed", 7, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 15, "run length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run that prints the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, append the spans to this file as JSON lines")
	jsonOut := fs.String("json", "", "append each workload's full result (host facts, sample counts, failures) to this file as a JSON line")
	partFlag := fs.String("part", "", "I/K: run share I of K in this process and print its raw samples as JSON (the parent process passes this to its children)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := settings{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, jsonOut: *jsonOut, parts: 1, sizes: fullSizes}
	bad := fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || (*spans != "" && *trace != 1)
	if *partFlag != "" {
		_, err := fmt.Sscanf(*partFlag, "%d/%d", &cfg.part, &cfg.parts)
		bad = bad || err != nil || cfg.parts < 1 || cfg.part < 0 || cfg.part >= cfg.parts || cfg.trace
	}
	if bad {
		fmt.Fprintln(stderr, "netperf: bad arguments (see -h)")
		return 2
	}

	// A terminated run cancels ctx, which kills the running child
	// process (exec.CommandContext) before this one exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.workload == "" {
		return runAll(ctx, cfg, stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "netperf:", err)
		return 1
	}
	cfg.root = root
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	var res *result
	switch {
	case *partFlag != "":
		r, err := runShare(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "netperf: %s part %s: %v\n", cfg.workload, *partFlag, err)
			return 1
		}
		b, err := json.Marshal(r.done())
		if err != nil {
			fmt.Fprintf(stderr, "netperf: %s part %s: %v\n", cfg.workload, *partFlag, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case cfg.trace:
		var tr *tracer
		if res, tr, err = runWorkload(ctx, cfg); err == nil && cfg.spans != "" {
			err = tr.writeTo(cfg.spans)
		}
	default:
		res, err = runParts(ctx, cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "netperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.jsonOut != "" {
		if err := appendJSONLines(cfg.jsonOut, 1, func(int) any { return res }); err != nil {
			fmt.Fprintln(stderr, "netperf: writing result:", err)
			return 1
		}
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "netperf:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runShare runs this process's share of cfg.workload.
func runShare(ctx context.Context, cfg settings) (*runner, error) {
	for _, w := range workloads {
		if w.name == cfg.workload {
			r := newRunner(ctx, cfg)
			return r, w.run(r)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runWorkload runs all of cfg.workload in this process.
func runWorkload(ctx context.Context, cfg settings) (*result, *tracer, error) {
	r, err := runShare(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := r.result()
	if err := checkEndToEnd(res); err != nil {
		return nil, nil, err
	}
	return res, r.tr, nil
}

// checkEndToEnd fails a result that lacks an end-to-end metric.
func checkEndToEnd(res *result) error {
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			return fmt.Errorf("no %s measured", d.name)
		}
	}
	return nil
}

// runParts runs cfg.workload as child processes, one after another,
// each doing its share of the work, and merges their samples.
func runParts(ctx context.Context, cfg settings, stderr io.Writer) (*result, error) {
	n := 0
	for _, w := range workloads {
		if w.name == cfg.workload {
			n = w.parts
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var parts []part
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-part", fmt.Sprintf("%d/%d", i, n))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var p part
		if err := json.Unmarshal(out, &p); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		parts = append(parts, p)
	}
	cfg.parts = n
	res := merge(cfg, parts)
	setUnits(res)
	return res, checkEndToEnd(res)
}

// printResult prints every metric of the run's mode by name, with its
// unit and sample count, then the one-line JSON summary of them. An
// untraced run also prints its unbounded op timings, marked as such,
// outside the summary.
func printResult(w io.Writer, res *result) error {
	defs, mode := endToEnd, "end-to-end"
	if res.Trace {
		defs, mode = perLayer, "per-layer"
	}
	h := res.Host
	fmt.Fprintf(w, "netperf %s seed=%d seconds=%g %s nproc=%d gomaxprocs=%d %s rev=%s\n",
		res.Workload, res.Seed, res.Seconds, mode, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Revision)
	type entry struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]entry{}}
	for _, d := range defs {
		m := res.Metrics[d.name]
		val := "null"
		if m.Value != nil {
			val = fmt.Sprintf("%.6g", *m.Value)
		}
		fmt.Fprintf(w, "  %-34s %14s %-6s n=%d\n", d.name, val, d.unit, m.N)
		line.Metrics[d.name] = entry{m.Value, d.unit}
	}
	if !res.Trace {
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.name]; ok && m.Value != nil {
				fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d (unbounded)\n", d.name, *m.Value, d.unit, m.N)
			}
		}
	}
	fmt.Fprintf(w, "  correct=%t attempted=%d failed=%d error_rate=%g\n", res.Correct, res.Attempted, res.Failed, res.ErrorRate)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("summary line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runAll runs every workload in a child process of its own, one after
// another: the term interner and the heap are process-wide, so a
// workload sharing a process would inherit its predecessor's state.
func runAll(ctx context.Context, cfg settings, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "netperf:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if cfg.spans != "" {
			args = append(args, "-spans", cfg.spans)
		}
		if cfg.jsonOut != "" {
			args = append(args, "-json", cfg.jsonOut)
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "netperf: %s: %v\n", w.name, err)
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return 1
			}
			code = 1
		}
	}
	return code
}

// findRoot walks up from the working directory to the repository root,
// recognised by the seed scenarios' golden reports.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenDir)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s above the working directory", goldenDir)
		}
		dir = parent
	}
}
