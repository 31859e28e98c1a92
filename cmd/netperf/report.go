package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// goldenDir holds the seed scenarios' committed reports, relative to
// the repository root. netperf only reads them.
const goldenDir = "internal/core/testdata"

// sizes are the workload sizes. The tests run the same code with
// smaller ones.
type sizes struct {
	fabricRouters int // fabric-stream's topology.Random size
	whatifRouters int // whatif-edits' topology.Random size
	serveVariants int // serve-mix edited variants per scenario
}

var fullSizes = sizes{fabricRouters: 300, whatifRouters: 60, serveVariants: 10}

// The random graphs behind fabric-stream and whatif-edits. The seed
// renames their routers but never redraws them (see doc.go).
const (
	fabricGraph = 7
	whatifGraph = 8
)

// Candidate-path bounds. At 6 hops a 300-router fabric-stream report
// takes about 0.15 s on the reference host, so a run streams over a
// hundred and its tail is a real one; at 7 hops a report takes 0.6 s.
const (
	fabricMaxPathLen = 6
	whatifMaxPathLen = 7
)

// Closed-loop op rates at full size: a run performs --seconds times
// this many ops, which took about --seconds on the reference host when
// the benchmark was written (see doc.go).
const (
	paperCLIOpsPerSecond  = 12.5 // a round of the three scenario reports
	fabricOpsPerSecond    = 6.5  // one 300-router report
	whatifCyclesPerSecond = 8.5  // add, retune and undo a MED line
)

// reportJob is one deployment an op explains cold: a fresh explainer
// streaming the whole-network report, what `netexplain -all` does.
type reportJob struct {
	name string
	net  *topology.Network
	reqs []spec.Requirement
	dep  config.Deployment
	opts core.Options
	want [32]byte // sha256 of the expected report
}

// stampWriter hashes a streamed report and timestamps each write:
// WriteReport writes the header, then one write per router section.
type stampWriter struct {
	h     hash.Hash
	times []time.Time
}

func (w *stampWriter) Write(p []byte) (int, error) {
	w.times = append(w.times, time.Now())
	w.h.Write(p)
	return len(p), nil
}

// rendered is one cold report's outcome.
type rendered struct {
	sum   [32]byte
	start time.Time
	times []time.Time
	e     *core.Explainer
}

func (j *reportJob) render(ctx context.Context) (rendered, error) {
	out := rendered{start: time.Now()}
	e, err := core.NewExplainer(j.net, j.reqs, j.dep, j.opts)
	if err != nil {
		return out, err
	}
	w := &stampWriter{h: sha256.New()}
	if _, err := e.WriteReport(ctx, w); err != nil {
		return out, err
	}
	copy(out.sum[:], w.h.Sum(nil))
	out.times, out.e = w.times, e
	return out, nil
}

// check turns an error or a report that differs from the expected
// bytes into a failed op.
func (j *reportJob) check(out rendered, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", j.name, err)
	}
	if out.sum != j.want {
		return fmt.Errorf("%s: report sha256 %x…, want %x…", j.name, out.sum[:6], j.want[:6])
	}
	return nil
}

// replayed is the per-layer split of one traced replay.
type replayed struct {
	prepare, symbolize, simplify, lift time.Duration
	simplifyOK                         bool // the stats fields it needs exist
}

func (a *replayed) add(b replayed) {
	a.prepare += b.prepare
	a.symbolize += b.symbolize
	a.simplify += b.simplify
	a.lift += b.lift
	a.simplifyOK = a.simplifyOK && b.simplifyOK
}

// replay re-runs a report router by router through the public calls, in
// the order the pipeline runs them, with a span around each: the scoped
// recording, then per router Symbolize, ExplainAll with lift off and,
// when the job lifts, ExplainAll again with lift on. The second pass
// must find its encoding and simplification cached.
func (j *reportJob) replay(ctx context.Context, tr *tracer, op int64) (replayed, error) {
	lay := replayed{simplifyOK: true}
	root, endRoot := tr.start(op, 0, "op.replay")
	defer endRoot(map[string]float64{"routers": float64(len(j.dep))})
	opts := j.opts
	opts.Lift = false
	e, err := core.NewExplainer(j.net, j.reqs, j.dep, opts)
	if err != nil {
		return lay, err
	}
	routers := make([]string, 0, len(j.dep))
	for r := range j.dep {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	if len(routers) > 1 {
		_, end := tr.start(op, root, "engine.prepare_scoped")
		e.Session.PrepareScoped(ctx)
		lay.prepare = end(nil)
	}
	for _, router := range routers {
		c := j.dep[router]
		var sym time.Duration
		if targets := core.AllTargets(c); len(targets) > 0 {
			_, end := tr.start(op, root, "core.symbolize")
			_, _, err := core.Symbolize(c, targets)
			sym = end(map[string]float64{"targets": float64(len(targets))})
			if err != nil {
				return lay, fmt.Errorf("%s: symbolize %s: %w", j.name, router, err)
			}
		}
		lay.symbolize += sym

		before := fieldsOf(e.Stats())
		_, end := tr.start(op, root, "core.explain_nolift")
		_, err := e.ExplainAllContext(ctx, router)
		after := fieldsOf(e.Stats())
		enc := time.Duration(after.get("EncodeTime", &lay.simplifyOK) - before.get("EncodeTime", &lay.simplifyOK))
		d := end(map[string]float64{"encode_busy_ms": ms(enc)})
		if err != nil {
			return lay, fmt.Errorf("%s: explain %s: %w", j.name, router, err)
		}
		lay.simplify += d - enc - sym

		if !j.opts.Lift {
			continue
		}
		e.Opts.Lift = true
		_, end = tr.start(op, root, "core.explain_lift")
		_, err = e.ExplainAllContext(ctx, router)
		lay.lift += end(nil)
		e.Opts.Lift = false
		if err != nil {
			return lay, fmt.Errorf("%s: lift %s: %w", j.name, router, err)
		}
		again := fieldsOf(e.Stats())
		ok := true
		encodes := again.get("Encodes", &ok) - after.get("Encodes", &ok)
		simpHits := again.get("SimplifyHits", &ok) - after.get("SimplifyHits", &ok)
		if ok && (encodes != 0 || simpHits < 1) {
			return lay, fmt.Errorf("%s: lift pass on %s re-encoded (%v) or re-simplified (%v simplify hits)", j.name, router, encodes, simpHits)
		}
	}
	return lay, nil
}

// runReports measures cold reports in a closed loop, one client, for
// ops ops. An op renders every job of the round next returns; checks
// count per report. Traced runs alternate a real op with a router-by-
// router replay of the same round.
func runReports(r *runner, next func() []*reportJob, warmups, ops int) error {
	r.warm(func() {
		for i := 0; i < warmups; i++ {
			for _, j := range next() {
				out, err := j.render(r.ctx)
				r.attempt(j.check(out, err))
			}
		}
	})
	var plain, traced series
	var eng engineSum
	var prep, sym, simp, lift, first, gap []float64
	simplifyOK := true
	stop := r.opDeadline()
	for op := 0; op < ops && time.Now().Before(stop); op++ {
		round := next()
		if r.tr != nil && op%2 == 1 {
			lay := replayed{simplifyOK: true}
			var err error
			traced.time(func() {
				for _, j := range round {
					var l replayed
					if l, err = j.replay(r.ctx, r.tr, int64(op)); err != nil {
						return
					}
					lay.add(l)
				}
			})
			r.attempt(err)
			if err == nil {
				prep = append(prep, ms(lay.prepare))
				sym = append(sym, ms(lay.symbolize))
				simp = append(simp, ms(lay.simplify))
				lift = append(lift, ms(lay.lift))
				simplifyOK = simplifyOK && lay.simplifyOK
			}
			continue
		}
		outs := make([]rendered, len(round))
		errs := make([]error, len(round))
		plain.time(func() {
			for i, j := range round {
				outs[i], errs[i] = j.render(r.ctx)
			}
		})
		for i, j := range round {
			r.attempt(j.check(outs[i], errs[i]))
			if errs[i] != nil || r.tr == nil {
				continue
			}
			out := outs[i]
			eng.add(nil, fieldsOf(out.e.Stats()), false, 1)
			if len(out.times) > 1 {
				first = append(first, ms(out.times[1].Sub(out.start)))
				g := 0.0
				for k := 2; k < len(out.times); k++ {
					g = max(g, ms(out.times[k].Sub(out.times[k-1])))
				}
				gap = append(gap, g)
			}
		}
	}
	r.recordOps(&plain)
	if r.tr == nil {
		return nil
	}
	r.recordRuntime(plain.rt, len(plain.lat))
	r.recordOverhead(plain.lat, traced.lat)
	eng.record(r)
	r.set("synth.prepare_scoped_ms", median(prep), len(prep))
	r.set("core.symbolize_ms", median(sym), len(sym))
	r.setIf("rewrite.simplify_ms", median(simp), len(simp), simplifyOK)
	r.set("core.lift_ms", median(lift), len(lift))
	r.set("core.stream_first_section_ms", median(first), len(first))
	r.set("core.stream_max_gap_ms", median(gap), len(gap))
	return nil
}

// runPaperCLI: cold lifted reports of the paper's three scenarios,
// checked against their committed goldens. An op is one report of each
// scenario, in a seeded order.
func runPaperCLI(r *runner) error {
	var jobs []*reportJob
	err := r.setup(1, func() error {
		for _, sc := range scenarios.All() {
			res, err := synth.SynthesizeContext(r.ctx, sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
			if err != nil {
				return fmt.Errorf("%s: %w", sc.Name, err)
			}
			golden, err := os.ReadFile(filepath.Join(r.cfg.root, goldenDir, "report_"+sc.Name+".golden"))
			if err != nil {
				return err
			}
			jobs = append(jobs, &reportJob{name: sc.Name, net: sc.Net, reqs: sc.Requirements(), dep: res.Deployment, opts: core.DefaultOptions(), want: sha256.Sum256(golden)})
		}
		return nil
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	next := func() []*reportJob {
		round := make([]*reportJob, len(jobs))
		for i, k := range rng.Perm(len(jobs)) {
			round[i] = jobs[k]
		}
		return round
	}
	ops, skip := r.share(r.opCount(paperCLIOpsPerSecond))
	for i := 0; i < skip; i++ {
		next()
	}
	return runReports(r, next, 1, ops)
}

// runFabricStream: cold unlifted whole-network reports of one populated
// random fabric, streamed, each byte-identical to the first. Each part
// of a run names the fabric's routers by a labeling of its own, the
// part-th drawn from the seed: report time depends on the labeling (the
// labelings of seeds 4 and 8 differed by 7% on the reference host), so
// pooling a run's parts averages several labelings.
func runFabricStream(r *runner) error {
	var job *reportJob
	labeling := labelingSeed(r.cfg.seed, r.cfg.part)
	err := r.setup(1, func() error {
		wl, dep, opts, err := buildFabric(r.ctx, r.cfg.sizes.fabricRouters, fabricGraph, labeling, fabricMaxPathLen)
		if err != nil {
			return err
		}
		copts := core.DefaultOptions()
		copts.Synth = opts
		copts.Lift = false
		job = &reportJob{name: "fabric", net: wl.Net, reqs: wl.Requirements(), dep: dep, opts: copts}
		return nil
	})
	if err != nil {
		return err
	}
	// The first report, untimed, is the reference every later one must
	// equal; for a pinned seed it must match the committed digest too.
	var ref rendered
	r.warm(func() { ref, err = job.render(r.ctx) })
	if err != nil {
		return fmt.Errorf("reference report: %w", err)
	}
	job.want = ref.sum
	if pin, ok := pinnedDigest(r.cfg.seed, r.cfg.part, r.cfg.sizes.fabricRouters); ok && pin != ref.sum {
		r.attempt(fmt.Errorf("fabric seed %d part %d: report sha256 %x, pinned %x", r.cfg.seed, r.cfg.part, ref.sum, pin))
	} else {
		r.attempt(nil)
	}
	round := []*reportJob{job}
	ops, _ := r.share(r.opCount(fabricOpsPerSecond))
	return runReports(r, func() []*reportJob { return round }, 0, ops)
}

// labelingSeed returns the seed of the router labeling part part of a
// run uses: the part-th number drawn from the run's seed.
func labelingSeed(seed int64, part int) int64 {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < part; i++ {
		rng.Int63()
	}
	return rng.Int63()
}

// buildFabric synthesizes the populated no-transit workload on
// topology.Random(n, 2.5, graph), candidate paths bounded at
// maxPathLen hops, with its internal routers renamed by a permutation
// drawn from seed.
func buildFabric(ctx context.Context, n int, graph, seed int64, maxPathLen int) (*netgen.Workload, config.Deployment, synth.Options, error) {
	opts := synth.DefaultOptions()
	opts.MaxPathLen = maxPathLen
	opts.MaxCandidatesPerNode = 8
	net, err := relabel(topology.Random(n, 2.5, graph), seed)
	if err != nil {
		return nil, nil, opts, err
	}
	wl, err := netgen.NoTransit(fmt.Sprintf("rand_%d_g%d_s%d", n, graph, seed), net)
	if err != nil {
		return nil, nil, opts, err
	}
	netgen.Populate(wl)
	res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), opts)
	if err != nil {
		return nil, nil, opts, fmt.Errorf("%s: %w", wl.Name, err)
	}
	return wl, res.Deployment, opts, nil
}

// relabel returns an isomorphic copy of net whose internal routers are
// renamed R0..Rn-1 in an order drawn from seed. Every name-sorted
// order downstream (report sections, worker assignment, the order terms
// are built in) changes; the graph and so the work do not.
func relabel(net *topology.Network, seed int64) (*topology.Network, error) {
	internals := net.Internals()
	perm := rand.New(rand.NewSource(seed)).Perm(len(internals))
	names := make(map[string]string, len(internals))
	for i, r := range internals {
		names[r.Name] = fmt.Sprintf("R%d", perm[i])
	}
	rename := func(s string) string {
		if n, ok := names[s]; ok {
			return n
		}
		return s
	}
	out := topology.New()
	for _, r := range net.Routers() {
		var err error
		switch {
		case r.Role == topology.Internal:
			err = out.AddRouter(rename(r.Name), r.AS)
		case r.Stub:
			err = out.AddStub(r.Name, r.AS, r.Prefix)
		default:
			err = out.AddExternal(r.Name, r.AS, r.Prefix)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, l := range net.Links() {
		if err := out.AddLink(rename(l[0]), rename(l[1])); err != nil {
			return nil, err
		}
	}
	return out, nil
}

//go:embed testdata/fabric-stream.sha256
var pinnedDigests string

// pinnedDigest returns the committed report digest for a fabric-stream
// seed, part and size, if one is pinned.
func pinnedDigest(seed int64, part, routers int) ([32]byte, bool) {
	var sum [32]byte
	for _, line := range strings.Split(pinnedDigests, "\n") {
		var hexSum string
		var s int64
		var p, n int
		if _, err := fmt.Sscanf(line, "%s seed=%d part=%d routers=%d", &hexSum, &s, &p, &n); err != nil || s != seed || p != part || n != routers {
			continue
		}
		b, err := hex.DecodeString(hexSum)
		if err != nil || len(b) != len(sum) {
			continue
		}
		copy(sum[:], b)
		return sum, true
	}
	return sum, false
}
