package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names a metric and its unit. The two tables below are the
// benchmark's contract with BENCHMARK.json; a test keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees that a run holds
// steady enough to bound (see doc.go), printed by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, printed by a traced run. A layer
// a workload never reaches reads 0. The op timings come first: they are
// what a user sees, but on the reference host they drift with the host
// by more than any bound allows, so they are reported unbounded (see
// doc.go); a traced run takes them from its untraced ops, an untraced
// run prints them too and records them with -json.
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"trace.overhead_share", "ratio"},
	{"core.symbolize_ms", "ms"},
	{"core.lift_ms", "ms"},
	{"core.lift_queries", "count"},
	{"core.lift_query_p95_us", "us"},
	{"sat.solves", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"synth.prepare_scoped_ms", "ms"},
	{"synth.encode_busy_ms", "ms"},
	{"synth.scoped_copy_share", "ratio"},
	{"rewrite.simplify_ms", "ms"},
	{"rewrite.nf_hit_share", "ratio"},
	{"rewrite.nf_entries", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"core.stream_first_section_ms", "ms"},
	{"core.stream_max_gap_ms", "ms"},
	{"core.whatif_dirty_routers", "count"},
	{"core.whatif_spliced", "count"},
	{"core.whatif_recomputed", "count"},
	{"core.whatif_fast_path_share", "ratio"},
	{"engine.report_cache_hit_share", "ratio"},
	{"engine.encode_cache_hit_share", "ratio"},
	{"engine.warm_solver_hit_share", "ratio"},
	{"server.response_cache_hit_share", "ratio"},
	{"server.pool_hit_share", "ratio"},
	{"server.response_cache_evictions", "count"},
	{"server.pool_evictions", "count"},
	{"server.rejected", "count"},
	{"server.miss_service_p50_ms", "ms"},
	{"server.hit_p50_ms", "ms"},
	{"server.hit_engine_delta", "count"},
	{"loadgen.conn_wait_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.max_rate_rps", "1/s"},
}

// metric is one measured value. A nil Value means a counter the
// benchmark reads by field name no longer exists.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n"`
}

// host records where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	Platform   string `json:"platform"`
}

// part is one process's share of a run: the raw samples a parent
// process merges across its children (see runParts).
type part struct {
	SetupS    float64   `json:"setup_s"`
	LatMS     []float64 `json:"lat_ms"` // end-to-end op latencies
	CPUMS     float64   `json:"cpu_ms"` // process CPU over the timed ops
	MeasuredS float64   `json:"measured_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	// Steps holds serve-mix's per-rate load-generator results.
	Steps []stepSummary `json:"steps,omitempty"`
}

// result is one workload run: the record -json appends.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Parts     int      `json:"parts"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Failures  []string `json:"failures,omitempty"`
	// MeasuredS is the time the measured ops took, checks excluded.
	MeasuredS float64           `json:"measured_s"`
	Metrics   map[string]metric `json:"metrics"`
	Steps     []stepSummary     `json:"steps,omitempty"`
}

// merge pools the parts of a run into its result: latencies are pooled
// before the median and tail are taken, CPU is summed, and set-up time
// and peak RSS are the medians over the parts' processes.
func merge(cfg settings, parts []part) *result {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hostFacts(cfg.root), Parts: len(parts), Metrics: map[string]metric{}}
	var setup, lat, rss []float64
	cpu := 0.0
	for _, p := range parts {
		setup = append(setup, p.SetupS)
		lat = append(lat, p.LatMS...)
		rss = append(rss, p.PeakRSSMB)
		cpu += p.CPUMS
		res.MeasuredS += p.MeasuredS
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		res.Steps = append(res.Steps, p.Steps...)
		for _, f := range p.Failures {
			if len(res.Failures) < 10 {
				res.Failures = append(res.Failures, f)
			}
		}
	}
	set := func(name string, v float64, n int) { res.Metrics[name] = metric{Value: &v, N: n} }
	set("setup_s", median(setup), len(setup))
	set("peak_rss_mb", median(rss), len(rss))
	if n := len(lat); n > 0 {
		set("op_p50_ms", median(lat), n)
		set("op_tail_ms", tail(lat), n)
		set("cpu_ms_per_op", cpu/float64(n), n)
	}
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0
	return res
}

// hostFacts describes this host and the revision of the checkout at
// root.
func hostFacts(root string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Revision != "unknown" {
			h.Revision += "+dirty"
		}
	}
	if h.Revision == "unknown" {
		if rev, err := gitHead(root); err == nil {
			h.Revision = rev
		}
	}
	return h
}

// gitHead reads the commit the checkout at root has checked out, from
// .git/HEAD and the ref it names (a loose ref file or packed-refs), for
// a binary built without version-control stamping (`go run` and
// `go test` do not stamp). Uncommitted changes are not detected.
func gitHead(root string) (string, error) {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "", err
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref, nil
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b)), nil
	}
	packed, err := os.ReadFile(filepath.Join(dir, "packed-refs"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha, nil
		}
	}
	return "", fmt.Errorf("ref %s not found", ref)
}

// runner carries one process's share of a run: its settings, the raw
// samples of its part, the per-layer metrics of a traced run and, for a
// traced run, the tracer.
type runner struct {
	ctx    context.Context
	cfg    settings
	p      part
	layers map[string]metric
	tr     *tracer // nil when untraced
}

func newRunner(ctx context.Context, cfg settings) *runner {
	r := &runner{ctx: ctx, cfg: cfg, layers: map[string]metric{}}
	if cfg.trace {
		r.tr = newTracer(cfg.workload)
	}
	return r
}

// attempt counts one operation, failed when err is non-nil.
func (r *runner) attempt(err error) {
	r.p.Attempted++
	if err != nil {
		r.p.Failed++
		if len(r.p.Failures) < 10 {
			r.p.Failures = append(r.p.Failures, err.Error())
		}
	}
}

// set records a per-layer metric.
func (r *runner) set(name string, v float64, n int) {
	r.layers[name] = metric{Value: &v, N: n}
}

// setIf records v, or null when a stats field it was computed from is
// missing.
func (r *runner) setIf(name string, v float64, n int, ok bool) {
	if !ok {
		r.layers[name] = metric{N: n}
		return
	}
	r.set(name, v, n)
}

// setup builds the workload's inputs times times, timing each, and
// keeps the median time: a run reports the median set-up over the set-
// ups it made. Each build replaces the previous one's inputs.
func (r *runner) setup(times int, build func() error) error {
	var ts []float64
	for i := 0; i < times; i++ {
		start := time.Now()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	r.p.SetupS = median(ts)
	return nil
}

// warm runs f, untimed work a part does after building its inputs and
// before its first timed op (warm-up or reference reports, a first pass
// over the edits, starting the server), and counts its time as set-up:
// set-up is everything a part does before it measures.
func (r *runner) warm(f func()) {
	start := time.Now()
	f()
	r.p.SetupS += time.Since(start).Seconds()
}

// done completes this process's part with its peak RSS.
func (r *runner) done() part {
	if rss, err := peakRSSMB(); err == nil {
		r.p.PeakRSSMB = rss
	}
	return r.p
}

// result turns this process's part into a result, with the per-layer
// metrics of a traced run; every metric gets its unit, and a traced run
// reads 0 for the layers its workload never reached.
func (r *runner) result() *result {
	res := merge(r.cfg, []part{r.done()})
	for name, m := range r.layers {
		res.Metrics[name] = m
	}
	if r.cfg.trace {
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				v := 0.0
				res.Metrics[d.name] = metric{Value: &v}
			}
		}
	}
	setUnits(res)
	return res
}

func setUnits(res *result) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m, ok := res.Metrics[d.name]; ok {
			m.Unit = d.unit
			res.Metrics[d.name] = m
		}
	}
}

// series collects one kind of timed op: latencies, CPU time and Go
// runtime counters, summed over the ops only (output checks between
// ops are not timed).
type series struct {
	lat   []float64 // ms
	total time.Duration
	cpu   time.Duration
	rt    rtSample
}

func (s *series) time(op func()) {
	c0, m0, t0 := cpuTime(), readRuntime(), time.Now()
	op()
	d := time.Since(t0)
	s.total += d
	s.cpu += cpuTime() - c0
	s.rt = s.rt.add(readRuntime().sub(m0))
	s.lat = append(s.lat, float64(d)/1e6)
}

// share returns this process's share of a run's n units of work, and
// the number of units the earlier parts do: a run's work is split over
// its parts, each continuing where the previous one stopped.
func (r *runner) share(n int) (count, offset int) {
	i, k := r.cfg.part, r.cfg.parts
	count, offset = n/k, i*(n/k)+min(i, n%k)
	if i < n%k {
		count++
	}
	return count, offset
}

// opCount is the fixed number of ops a closed-loop run performs:
// --seconds times the workload's rate, calibrated so that the ops take
// about --seconds on the reference host (see doc.go). A fixed count,
// rather than a time window, gives every run the same process history:
// reports slow down as a process repeats them, so a window would let
// the speed of a run decide how far it drifts.
func (r *runner) opCount(perSecond float64) int {
	return max(r.cfg.parts, int(math.Round(r.cfg.seconds*perSecond)))
}

// opDeadline returns when a closed loop starting now stops even if it
// has ops left: half again the time its share of the run should take. A
// guard, not a run length: it keeps a run on a host that is slow for a
// while inside the time the benchmark may take.
func (r *runner) opDeadline() time.Time {
	share := r.cfg.seconds / float64(r.cfg.parts)
	return time.Now().Add(time.Duration(1.5 * share * float64(time.Second)))
}

// recordOps adds an untraced series to the part's op samples.
func (r *runner) recordOps(s *series) {
	r.p.MeasuredS += s.total.Seconds()
	r.p.LatMS = append(r.p.LatMS, s.lat...)
	r.p.CPUMS += float64(s.cpu) / 1e6
}

// recordRuntime records the Go runtime's costs per op, from the counter
// deltas rt over n ops.
func (r *runner) recordRuntime(rt rtSample, n int) {
	if n == 0 {
		return
	}
	if busy := rt.cpuTotal - rt.cpuIdle; busy > 0 {
		r.set("runtime.gc_cpu_share", rt.cpuGC/busy, n)
	}
	r.set("runtime.alloc_mb_per_op", float64(rt.allocBytes)/(1<<20)/float64(n), n)
	r.set("runtime.gc_cycles_per_op", float64(rt.gcCycles)/float64(n), n)
}

// recordOverhead compares traced ops with untraced ones.
func (r *runner) recordOverhead(untraced, traced []float64) {
	if len(untraced) == 0 || len(traced) == 0 {
		return
	}
	r.set("trace.overhead_share", median(traced)/median(untraced)-1, len(traced))
}

// median returns the middle of xs (the mean of the two middles for an
// even count), 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has ten samples
// above it: the value of rank n-10 in ascending order. With twenty or
// fewer samples that rank is not above the median, so it is no tail,
// and the maximum stands in.
func tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 20 {
		return s[n-1]
	}
	return s[n-11]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// rtSample is a reading of the Go runtime counters netperf reports.
type rtSample struct {
	allocBytes, gcCycles     uint64
	cpuGC, cpuIdle, cpuTotal float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return rtSample{u(0), u(1), f(2), f(3), f(4)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.cpuGC - b.cpuGC, a.cpuIdle - b.cpuIdle, a.cpuTotal - b.cpuTotal}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.cpuGC + b.cpuGC, a.cpuIdle + b.cpuIdle, a.cpuTotal + b.cpuTotal}
}

// fields is a stats value (engine.Stats, core.DiffStats, the server's
// /metrics document) flattened to its JSON field names. The benchmark
// reads counters by name, so a field a later change removes reads as
// missing — null in the output — and never breaks the build.
type fields map[string]any

func fieldsOf(v any) fields {
	b, err := json.Marshal(v)
	if err != nil {
		return fields{}
	}
	return parseFields(b)
}

func parseFields(b []byte) fields {
	var f fields
	if json.Unmarshal(b, &f) != nil {
		return fields{}
	}
	return f
}

// num returns the number at a dotted path ("server.pool.hits"); ok is
// false when any step is missing or not of the expected kind.
func (f fields) num(path string) (float64, bool) {
	var cur any = map[string]any(f)
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	switch v := cur.(type) {
	case nil:
		return 0, true // a present field holding an empty list or nil
	case float64:
		return v, true
	case []any:
		return float64(len(v)), true // a list counts its entries
	case bool:
		if v {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// get is num that clears *ok instead of returning it, so a formula over
// several fields checks availability once.
func (f fields) get(path string, ok *bool) float64 {
	v, found := f.num(path)
	if !found {
		*ok = false
	}
	return v
}

// engineFields are the engine.Stats counters the per-layer metrics are
// computed from.
var engineFields = []string{
	"Solves", "Conflicts", "Propagations", "EncodeTime",
	"ScopedGroupsCopied", "ScopedGroupsEncoded",
	"NormCacheHits", "NormCacheMisses",
	"ReportCacheHits", "ReportCacheMisses",
	"CacheHits", "Encodes", "WarmSolverHits", "WarmSolverMisses",
	"LiftQueries",
}

// chainFields are the engine.Stats counters of caches a ReExplain
// successor session shares with its predecessor: cumulative across the
// chain, where every other counter restarts with the new session.
var chainFields = map[string]bool{
	"NormCacheHits": true, "NormCacheMisses": true,
	"ReportCacheHits": true, "ReportCacheMisses": true,
}

// engineSum totals the engine work of a set of ops.
type engineSum struct {
	ops     int
	sum     map[string]float64
	missing bool
	entries []float64 // NormCacheEntries after each add
	p95     []float64 // LiftP95 after each add, in µs
}

// add folds the engine work of ops ops: after minus before, where before
// is nil for ops on a fresh session. With chain set (an op that moved to
// a successor session) only the shared caches' counters are deltas.
func (s *engineSum) add(before, after fields, chain bool, ops int) {
	if s.sum == nil {
		s.sum = map[string]float64{}
	}
	s.ops += ops
	for _, name := range engineFields {
		a, ok := after.num(name)
		if !ok {
			s.missing = true
			continue
		}
		if before != nil && (!chain || chainFields[name]) {
			b, _ := before.num(name)
			a -= b
		}
		s.sum[name] += a
	}
	if v, ok := after.num("NormCacheEntries"); ok {
		s.entries = append(s.entries, v)
	} else {
		s.missing = true
	}
	if v, ok := after.num("LiftP95"); ok {
		s.p95 = append(s.p95, v/1e3)
	} else {
		s.missing = true
	}
}

// record sets the engine-derived per-layer metrics.
func (s *engineSum) record(r *runner) {
	if s.ops == 0 {
		return
	}
	ok := !s.missing
	n := float64(s.ops)
	share := func(a, b string) float64 {
		if d := s.sum[a] + s.sum[b]; d > 0 {
			return s.sum[a] / d
		}
		return 0
	}
	r.setIf("sat.solves", s.sum["Solves"]/n, s.ops, ok)
	r.setIf("sat.conflicts", s.sum["Conflicts"]/n, s.ops, ok)
	r.setIf("sat.propagations", s.sum["Propagations"]/n, s.ops, ok)
	r.setIf("synth.encode_busy_ms", s.sum["EncodeTime"]/1e6/n, s.ops, ok)
	r.setIf("synth.scoped_copy_share", share("ScopedGroupsCopied", "ScopedGroupsEncoded"), s.ops, ok)
	r.setIf("rewrite.nf_hit_share", share("NormCacheHits", "NormCacheMisses"), s.ops, ok)
	r.setIf("engine.report_cache_hit_share", share("ReportCacheHits", "ReportCacheMisses"), s.ops, ok)
	r.setIf("engine.encode_cache_hit_share", share("CacheHits", "Encodes"), s.ops, ok)
	r.setIf("engine.warm_solver_hit_share", share("WarmSolverHits", "WarmSolverMisses"), s.ops, ok)
	r.setIf("core.lift_queries", s.sum["LiftQueries"]/n, s.ops, ok)
	r.setIf("rewrite.nf_entries", median(s.entries), len(s.entries), ok)
	r.setIf("core.lift_query_p95_us", median(s.p95), len(s.p95), ok)
}

// span is one traced interval, written as a JSON line at exit. Spans of
// one op share Op; Parent is the enclosing span's ID (0 for an op's
// root span).
type span struct {
	Workload string             `json:"workload"`
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent"`
	Op       int64              `json:"op"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	next     int64
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// start opens a span; calling the returned function closes it with the
// given attributes and returns its duration.
func (t *tracer) start(op, parent int64, name string) (int64, func(attrs map[string]float64) time.Duration) {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	begin := time.Now()
	return id, func(attrs map[string]float64) time.Duration {
		end := time.Now()
		t.add(span{ID: id, Parent: parent, Op: op, Name: name, StartNS: t.at(begin), EndNS: t.at(end), Attrs: attrs})
		return end.Sub(begin)
	}
}

// add records a finished span, allocating its ID when it has none.
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	s.Workload = t.workload
	t.spans = append(t.spans, s)
}

// at converts an absolute time to the tracer's clock.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

// writeTo appends the spans to path as JSON lines.
func (t *tracer) writeTo(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return appendJSONLines(path, len(t.spans), func(i int) any { return t.spans[i] })
}

// appendJSONLines appends n JSON values, one a line, to path.
func appendJSONLines(path string, n int, item func(int) any) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
