// Command netperf is the repository's benchmark. Four workloads drive
// the explanation stack through its public entry points only
// (synth.SynthesizeContext, netgen, core.NewExplainer,
// Explainer.WriteReport / ExplainAllContext / ReExplainContext / Stats,
// core.Symbolize, engine.Session.PrepareScoped, and the netexplaind
// handler over loopback). An untraced run prints the end-to-end
// metrics and the op timings a user sees; a traced run splits the same
// kind of work across the pipeline's layers. Every run checks the bytes
// the system returns.
//
// # Running
//
// From the root of a checkout:
//
//	bash cmd/netperf/run.sh --workload paper-cli --seed 7 --seconds 15 --trace 0
//
// run.sh builds netperf into .bench_build/ (or $CARGO_TARGET_DIR) and
// runs it. netperf is a module of its own (cmd/netperf/go.mod, which
// reaches the repository's module through a replace directive), so the
// benchmark builds from its own directory; `go build ./...` and
// `go test ./...` at the root do not include it, and a change to an API
// netperf calls shows when run.sh no longer builds it. Inside
// cmd/netperf, `go run . [flags]` and `go test .` work as usual. Flags:
//
//	-workload NAME  paper-cli, fabric-stream, whatif-edits or serve-mix;
//	                without it every workload runs in turn, each in a
//	                child process of its own
//	-seed N         seed the inputs are generated from (default 7)
//	-seconds S      run length (default 15)
//	-trace 0|1      1 prints the per-layer metrics instead of the
//	                end-to-end ones
//	-spans FILE     with -trace 1, append the spans to FILE (JSON lines)
//	-json FILE      append the full result to FILE (JSON lines): host
//	                facts, every metric with its sample count, failures,
//	                serve-mix's steps
//
// A run prints a header with the host facts (nproc, GOMAXPROCS, Go
// version, and the git revision: the build's version-control stamp,
// else the commit .git/HEAD names, else "unknown"), one line per metric
// with its value, unit and sample count n, the attempted/failed/
// error_rate counts, and last a one-line JSON summary of the mode's
// metrics: {"correct", "attempted", "failed", "metrics": {name:
// {"value", "unit"}}}. An untraced run also prints the op timings,
// marked unbounded, outside the summary. It exits 1 when any output
// check failed. A metric computed from a stats field the program no
// longer has reads null: counters are read by JSON field name (see
// fields), so a later change that removes one never breaks the build.
//
// # Workloads
//
// Each workload runs in processes of its own: the term interner and the
// heap are process-wide, and a workload sharing a process would inherit
// its predecessor's terms and garbage. An untraced run of a closed-loop
// workload is split over several child processes, run one after
// another, each setting up its inputs and doing its share of the run's
// ops; their samples are pooled. A traced run is one process.
//
// paper-cli — one client, closed loop, four processes. An op is a cold
// report of each of the paper's three scenarios (a fresh explainer,
// lift on, WriteReport), in a seeded order: what `netexplain -all` does
// three times. Lift and SAT dominate and encoding is small. No cache
// outlives an op, so a caching change should predict no change here.
// Each report must equal internal/core/testdata/report_scenario*.golden.
//
// fabric-stream — one client, closed loop, four processes. An op
// streams the unlifted whole-network report of a populated 300-router
// random fabric (topology.Random(300, 2.5, 7), candidate paths of at
// most 6 hops, 8 candidates per node) from a fresh explainer. This is
// the scale path: scoped encoding, simplification and GC do the work;
// lift and SAT do none. A report takes about 0.15 s on the reference
// host (0.6 s at 7 hops), so a run streams about a hundred and its tail
// is a real one. Each process names the routers by a labeling of its
// own drawn from the seed. Every report must equal the process's first
// byte for byte; for seed 7 the first must also match the digest pinned
// for that process in testdata/fabric-stream.sha256.
//
// whatif-edits — one warm explainer (lift on) on a populated 60-router
// fabric (topology.Random(60, 2.5, 8), 7 hops), closed loop, three
// processes. Each cycle adds a MED line at one of four seeded sites,
// retunes the line's value, and undoes both by returning to the base
// deployment. Adding or removing the line changes the router's
// fingerprint, so ReExplain sweeps every router; MED is outside the
// modeled semantics, so every lift is spliced from the report cache (60
// of 60 once the first pass has filled it). The retune changes nothing
// the fingerprints model, so the fast path returns the previous report.
// These are the writes beside the cold workloads' reads: fingerprints,
// base diffs, lift splicing and the report cache. An untimed first pass
// visits every site. Undos must reproduce the base report; every other
// op must repeat the report its deployment produced in the first pass,
// and each edited deployment's first-pass report is compared with a
// cold explainer's once per run, outside the timed part (a cold report
// costs as much as about sixteen ops, so the run's processes share
// these checks).
//
// serve-mix — open loop, one generator goroutine, at most one client
// connection per CPU, 10 requests/s for the whole run, against
// server.New(server.Options{}).Handler() on a loopback listener: the
// defaults netexplaind runs with, a 256-entry response cache and a
// 16-session pool. A run is one process and one server, so the caches
// and the pool fill and evict as a long-running server's do. The mix
// repeats a fixed pattern: half repeat /explain of a scenario's base
// problem (response-cache hits after a warm-up request each), a quarter
// /explain of an edited variant, a quarter /diff from base to variant.
// Each kind rotates over the three scenarios and walks each scenario's
// ten seeded netgen.Perturb variants (screened in set-up: an edit that
// breaks the intent cannot be explained) in its own seeded order,
// starting over when it has named them all. A 15-second run sends 150
// requests: 75 base explains, and 75 variant requests of which the first
// pass over the variants, 60, misses and 15 hit. Hits bypass the
// engine. Misses exercise the engine and the session pool: a run
// touches 33 problems, more than the pool holds, so the pool evicts;
// an /explain of a variant an earlier /diff left in the pool is a pool
// hit. The response cache holds all 63 keys a run offers, so it never
// evicts (server.response_cache_evictions reads 0). Each step's record
// in -json carries how far the server's counters moved over it. Every
// 200 response must carry the report a direct core call produces for
// the same problem.
//
// # Inputs and run length
//
// The seed decides every input that can vary without changing the
// amount of work: paper-cli's report order, the router names of the
// random fabrics (routers are renamed by a seeded permutation, which
// changes every name-sorted order downstream — report sections, worker
// assignment, the order terms are built in — but not the graph),
// whatif-edits' edit sites, and serve-mix's variants and the order they
// are used in. The graphs themselves are fixed: random fabrics of one
// size differ in encoding size by a factor of ten (4.1k to 48.6k atoms
// over topology seeds 1-60 at 300 routers) and report time follows, so
// a seed that redrew the graph would make runs incomparable.
//
// Closed-loop workloads perform a fixed number of ops, --seconds times
// a rate that took about --seconds at the commit the benchmark was
// written (paperCLIOpsPerSecond and friends). A time window would let
// each run's speed decide its history, and history matters: a process
// that repeats reports slows down as the process-wide interner and heap
// grow (fabric-stream at 7 hops, 58 reports in one process: 0.54 s per
// report in the first ten, 0.75 s in the last eight; live heap after GC
// 33 MB rising to 58 MB). A guard stops a process's ops early once they
// have taken half again their share of --seconds, so that a run on a
// host that is slow for a while still ends in time.
//
// # End-to-end metrics and bounds
//
// Measured untraced; each is the median over the run's processes.
//
//	setup_s      everything a process does before it measures:
//	             building the inputs (synthesis, and for whatif-edits
//	             the warm explainer's first report, for serve-mix the
//	             variant screening), then the untimed warm-up
//	             (paper-cli's first round, fabric-stream's reference
//	             report, whatif-edits' first pass over the edits with
//	             its cold-explainer checks, serve-mix's server start
//	             and warm-up requests); serve-mix, one process, builds
//	             its inputs three times and counts the median build
//	peak_rss_mb  the process's VmHWM at the end of its share
//
// error_rate (failed ÷ attempted ops, a wrong report counting as
// failed) is printed with every run and is 0 on a correct one; a run
// with any failure exits 1.
//
// BENCHMARK.json bounds each by the share of the parent's median it may
// worsen by, 0.25 for both. The op timings are not among them. They
// are what a user of the system sees, and a run measures and prints
// them, but the reference host (a 2-vCPU VM shared with other
// machines) changes speed by more than any bound the
// benchmark may set (at most 0.25): a fixed CPU kernel's time moved by
// about a quarter within 30 seconds, and the same benchmark inputs ran
// 10-47% slower in one half hour than in the one before. The procedure
// that decided this, run on an earlier calibration of the same
// workloads (20-second runs), was: two sets of ten runs (seeds 1-10 and
// 11-20), whose op-time quartile spreads were 0.08-0.24 and whose
// medians differed by up to 15% (whatif-edits), against the 10% the
// metrics were meant to hold; then a longer run, ten 40-second runs
// (seeds 21-30), whose spreads fell within a steady stretch (paper-cli
// 0.03-0.06) but whose medians had moved 10-47% from the first set's
// with the host. So op_p50_ms, op_tail_ms and cpu_ms_per_op are
// per-layer metrics, reported unbounded; a change that claims a
// latency gain must show it from paired runs of both commits.
//
// Two sets of ten runs of this calibration (seeds 1-10, then 11-20) are
// committed in testdata/runs-untraced.jsonl, every run correct. Their
// medians, each set's quartile spread in parentheses:
//
//	               setup_s (s)                 peak_rss_mb (MB)
//	paper-cli      0.164 (0.10)  0.146 (0.09)  38.2 (0.01)  38.5 (0.02)
//	fabric-stream  0.278 (0.17)  0.260 (0.17)  62.8 (0.02)  63.1 (0.02)
//	whatif-edits   4.14 (0.22)   4.34 (0.10)    304 (0.07)   295 (0.04)
//	serve-mix      1.99 (0.07)   2.11 (0.13)    126 (0.08)   125 (0.08)
//
// The second set's medians are within 11% of the first's for setup_s
// and 3% for peak_rss_mb. peak_rss_mb's bound is three times its widest
// spread (0.083, serve-mix), so that a set's spread stays well inside
// it; setup_s, whose spread the bound need not hold but which moves
// with the host's speed, gets the largest bound allowed. The unbounded
// op timings (ms) of the same runs:
//
//	               op_p50_ms            op_tail_ms           cpu_ms_per_op
//	paper-cli      138 (.07) 121 (.10)  162 (.22) 144 (.08)  194 (.05) 177 (.07)
//	fabric-stream  259 (.16) 239 (.08)  286 (.13) 274 (.06)  480 (.13) 447 (.08)
//	whatif-edits   81 (.07)  84 (.10)   115 (.04) 116 (.05)  117 (.04) 119 (.06)
//	serve-mix      52 (.13)  52 (.23)   116 (.23) 113 (.28)  77 (.10)  79 (.12)
//
// The host ran well below the speed of the 20-second sets then
// (paper-cli's op_p50_ms was 75 and 78 ms there), slowly enough that
// the guard cut some runs short: paper-cli did 147-188 of its 188
// rounds, fabric-stream 80-98 of 98 reports, whatif-edits 335-384 of
// 384 ops. serve-mix's op_tail_ms spread, 0.28, is past any bound
// allowed.
//
// # Per-layer metrics
//
// A traced run (-trace 1) keeps spans in memory and appends them to
// -spans at exit, one JSON object a line: workload, id, parent, op,
// name, start_ns, end_ns and attrs. Spans wrap the public calls.
// paper-cli and fabric-stream alternate a real op with a replay of the
// same op router by router: engine.prepare_scoped, then per router
// core.symbolize, core.explain_nolift (ExplainAllContext with lift off)
// and, for paper-cli, core.explain_lift (the same router again with
// Opts.Lift set, whose encode and simplification must be cache hits,
// checked through Stats deltas). whatif-edits wraps each ReExplain in a
// core.reexplain span carrying its DiffReport.Stats; serve-mix records
// an http.request span per request with httptrace phases. A layer's
// self time is its span's duration minus what its children cover.
// trace.overhead_share compares the traced ops' median with the
// untraced ops' median in the same run; for the replays it includes
// giving up the report's worker pool.
//
// The op timings, with an op being a paper-cli round of three reports,
// a fabric-stream report, a whatif-edits ReExplain call, or a serve-mix
// request the engine answered (X-Cache: miss):
//
//	op_p50_ms      median op latency; serve-mix from each request's due
//	               time
//	op_tail_ms     the highest percentile with ten samples above it:
//	               rank n-10 of n, the maximum when n <= 20
//	cpu_ms_per_op  process user+system CPU (getrusage) over the timed
//	               ops, per op; serve-mix over the measured step, per
//	               miss
//
// A traced run takes them from its untraced ops. Each other metric, the
// op timing it should move, and the workload where the effect shows (0
// where the workload never reaches the layer):
//
//	core.symbolize_ms, core.lift_ms, core.lift_queries,
//	core.lift_query_p95_us          -> op_p50_ms on paper-cli; lift 0 on
//	                                   fabric-stream
//	sat.solves, sat.conflicts,
//	sat.propagations (per op)       -> op_p50_ms, cpu_ms_per_op on
//	                                   paper-cli; 0 on fabric-stream
//	synth.prepare_scoped_ms, synth.encode_busy_ms,
//	synth.scoped_copy_share         -> op_p50_ms on fabric-stream
//	rewrite.simplify_ms (no-lift span minus encode busy time minus
//	symbolize), rewrite.nf_hit_share,
//	rewrite.nf_entries              -> op_p50_ms on fabric-stream
//	runtime.gc_cpu_share, runtime.alloc_mb_per_op,
//	runtime.gc_cycles_per_op        -> op_p50_ms, peak_rss_mb on
//	                                   fabric-stream
//	core.stream_first_section_ms,
//	core.stream_max_gap_ms          -> op_p50_ms on fabric-stream
//	core.whatif_dirty_routers, core.whatif_spliced,
//	core.whatif_recomputed, core.whatif_fast_path_share,
//	engine.report_cache_hit_share, engine.encode_cache_hit_share,
//	engine.warm_solver_hit_share    -> op_p50_ms, op_tail_ms on
//	                                   whatif-edits; report cache 0 on
//	                                   paper-cli and fabric-stream
//	server.response_cache_hit_share, server.pool_hit_share,
//	server.response_cache_evictions, server.pool_evictions,
//	server.rejected,
//	server.miss_service_p50_ms (request written to first byte),
//	server.hit_p50_ms               -> op_p50_ms, op_tail_ms on serve-mix
//	server.hit_engine_delta         engine counters moved by ten repeat
//	                                   hits: 0 when hits skip the engine
//	loadgen.conn_wait_p50_ms, loadgen.late_max_ms,
//	loadgen.max_rate_rps            validity of the open loop, and the
//	                                   highest of 5, 10, 20 and 40 req/s
//	                                   whose all-request tail is within
//	                                   500 ms (failures count as misses)
//	                                   with the generator at most 100 ms
//	                                   late
//
// Engine counters are per op for paper-cli and fabric-stream (each op
// has a fresh session), the successor session's plus the shared caches'
// deltas for whatif-edits, and /metrics deltas over the ramp, per miss,
// for serve-mix. A traced serve-mix run offers the measured rate
// untraced for half of --seconds, then each ramp rate for a quarter,
// each on a fresh server, so that every step starts the same request
// sequence with empty caches. testdata/runs-traced.jsonl holds two
// traced runs of each workload (seeds 7 and 17).
package main
