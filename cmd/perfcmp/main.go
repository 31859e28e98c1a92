// perfcmp compares two sets of netperf runs, a parent's and a
// change's, each a file of the JSON lines `netperf -json FILE` appends.
//
//	perfcmp parent.jsonl change.jsonl
//	perfcmp -bench BENCHMARK.json parent.jsonl change.jsonl
//
// Runs pair by (workload, seed). For each workload and metric it prints
// each side's median and quartiles over the runs that report the metric
// (a null value is skipped), and the pairs the change won: lower or
// higher than the parent's run, whichever the benchmark file declares
// better, with ties counting for neither side. A metric the benchmark
// file does not declare prints "-" as its count. It also prints each
// side's attempted and failed op totals per workload.
//
// Each end-to-end metric, one the benchmark file gives a bound (the
// share of the parent's median the change may worsen it by), also gets
// a verdict, checked in this order:
//
//	unresolved  the parent's quartile spread, as a share of its median,
//	            exceeds the bound, and not every change run beats every
//	            parent run
//	gain        at least 10 pairs were compared, the change won at
//	            least 9 in 10 of them, and its median is better than the
//	            parent's by more than the parent's interquartile range
//	worse       the change's median is worse than the parent's by more
//	            than the bound
//	flat        anything else
//
// Other metrics print "-" as their verdict.
//
// Exit codes follow the shared cmd convention: 0 success, 1 a file that
// cannot be read or parsed, a record without a workload or seed, a
// (workload, seed) that appears twice in one file or in only one of the
// two, 2 usage error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark file declaring which direction of each metric is better")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "perfcmp: want two files: parent.jsonl change.jsonl")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfcmp:", err)
		return 1
	}
	decls, err := readDecls(*benchPath)
	if err != nil {
		return fail(err)
	}
	parent, err := readRunsFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	change, err := readRunsFile(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	pairs, err := pairRuns(parent, change)
	if err != nil {
		return fail(err)
	}
	if err := report(stdout, pairs, decls); err != nil {
		return fail(err)
	}
	return 0
}

// metric is one netperf metric; a null value means the run could not
// compute it.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// record is the part of a netperf -json line perfcmp reads.
type record struct {
	Workload  string            `json:"workload"`
	Seed      *int64            `json:"seed"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runKey struct {
	workload string
	seed     int64
}

// decl is one metric the benchmark file declares: which direction is
// better ("lower" or "higher") and, for an end-to-end metric, its
// bound.
type decl struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// readDecls reads the benchmark file's metric declarations by name.
func readDecls(path string) (map[string]decl, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	decls := map[string]decl{}
	for _, d := range append(bench.EndToEnd, bench.PerLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better is %q, want lower or higher", path, d.Name, d.Better)
		}
		decls[d.Name] = d
	}
	return decls, nil
}

func readRunsFile(path string) (map[runKey]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// readRuns parses JSON lines, one netperf run each; blank lines are
// skipped.
func readRuns(r io.Reader) (map[runKey]record, error) {
	runs := map[runKey]record{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if rec.Workload == "" || rec.Seed == nil {
			return nil, fmt.Errorf("line %d: record without a workload or seed", line)
		}
		k := runKey{rec.Workload, *rec.Seed}
		if _, dup := runs[k]; dup {
			return nil, fmt.Errorf("line %d: %s seed %d appears twice", line, k.workload, k.seed)
		}
		runs[k] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, errors.New("no runs")
	}
	return runs, nil
}

// pair is one (workload, seed) run on both sides.
type pair struct {
	key            runKey
	parent, change record
}

// pairRuns matches every parent run with the change's run of the same
// workload and seed, in (workload, seed) order.
func pairRuns(parent, change map[runKey]record) ([]pair, error) {
	var unpaired []string
	var pairs []pair
	for k, p := range parent {
		c, ok := change[k]
		if !ok {
			unpaired = append(unpaired, fmt.Sprintf("%s seed %d (parent only)", k.workload, k.seed))
			continue
		}
		pairs = append(pairs, pair{k, p, c})
	}
	for k := range change {
		if _, ok := parent[k]; !ok {
			unpaired = append(unpaired, fmt.Sprintf("%s seed %d (change only)", k.workload, k.seed))
		}
	}
	if len(unpaired) > 0 {
		sort.Strings(unpaired)
		return nil, fmt.Errorf("unpaired runs: %s", strings.Join(unpaired, ", "))
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i].key, pairs[j].key
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.seed < b.seed
	})
	return pairs, nil
}

// report prints one block per workload.
func report(w io.Writer, pairs []pair, decls map[string]decl) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for start := 0; start < len(pairs); {
		end := start
		for end < len(pairs) && pairs[end].key.workload == pairs[start].key.workload {
			end++
		}
		writeWorkload(tw, pairs[start:end], decls)
		start = end
	}
	return tw.Flush()
}

func writeWorkload(w io.Writer, pairs []pair, decls map[string]decl) {
	var pa, pf, ca, cf int64
	names := map[string]string{} // metric name -> unit
	for _, p := range pairs {
		pa += p.parent.Attempted
		pf += p.parent.Failed
		ca += p.change.Attempted
		cf += p.change.Failed
		for name, m := range p.parent.Metrics {
			names[name] = m.Unit
		}
		for name, m := range p.change.Metrics {
			names[name] = m.Unit
		}
	}
	fmt.Fprintf(w, "%s: %d pairs; attempted/failed ops: parent %d/%d, change %d/%d\n",
		pairs[0].key.workload, len(pairs), pa, pf, ca, cf)
	fmt.Fprintln(w, "  metric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange won\tverdict")
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		d := decls[name]
		var pv, cv []float64
		won, compared := 0, 0
		for _, p := range pairs {
			a, aok := value(p.parent, name)
			b, bok := value(p.change, name)
			if aok {
				pv = append(pv, a)
			}
			if bok {
				cv = append(cv, b)
			}
			if aok && bok {
				compared++
				if d.beats(b, a) {
					won++
				}
			}
		}
		sort.Float64s(pv)
		sort.Float64s(cv)
		score, v := "-", "-"
		if d.Better != "" {
			score = fmt.Sprintf("%d/%d", won, compared)
		}
		if d.Bound != nil && len(pv) > 0 && len(cv) > 0 {
			v = d.verdict(pv, cv, won, compared)
		}
		fmt.Fprintf(w, "  %s\t%s\t%s\t%s\t%s\t%s\n", name, names[name], summary(pv), summary(cv), score, v)
	}
	fmt.Fprintln(w)
}

// beats reports whether value a is better than value b.
func (d decl) beats(a, b float64) bool {
	return (d.Better == "lower" && a < b) || (d.Better == "higher" && a > b)
}

// verdict judges an end-to-end metric from both sides' sorted values
// and the pairs the change won (see the package comment).
func (d decl) verdict(pv, cv []float64, won, compared int) string {
	pmed, cmed := quantile(pv, 0.5), quantile(cv, 0.5)
	iqr := quantile(pv, 0.75) - quantile(pv, 0.25)
	// Every change run beats every parent run when the change's worst
	// run beats the parent's best.
	worst, best := cv[len(cv)-1], pv[0]
	if d.Better == "higher" {
		worst, best = cv[0], pv[len(pv)-1]
	}
	switch {
	case iqr > *d.Bound*math.Abs(pmed) && !d.beats(worst, best):
		return "unresolved"
	case compared >= 10 && 10*won >= 9*compared && d.beats(cmed, pmed) && math.Abs(cmed-pmed) > iqr:
		return "gain"
	case d.beats(pmed, cmed) && math.Abs(cmed-pmed) > *d.Bound*math.Abs(pmed):
		return "worse"
	}
	return "flat"
}

// value returns the run's metric value, false when absent or null.
func value(r record, name string) (float64, bool) {
	m, ok := r.Metrics[name]
	if !ok || m.Value == nil {
		return 0, false
	}
	return *m.Value, true
}

// summary formats the median and quartiles of the sorted values, or
// "null" for none.
func summary(vs []float64) string {
	if len(vs) == 0 {
		return "null"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", quantile(vs, 0.5), quantile(vs, 0.25), quantile(vs, 0.75), len(vs))
}

// quantile interpolates linearly between the closest ranks of the
// sorted values (the usual "type 7" definition).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := math.Floor(pos)
	hi := math.Ceil(pos)
	frac := pos - lo
	return sorted[int(lo)]*(1-frac) + sorted[int(hi)]*frac
}
