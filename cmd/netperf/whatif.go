package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netgen"
)

// whatifSite is one MED line an operator edits: the edit that adds the
// line to a clause, and a retune of the same line's value.
type whatifSite struct {
	add, retune config.Deployment
	name        string
}

// pickSites draws n distinct MED edit sites from seed. Adding a metric
// line changes the router's fingerprint, so ReExplain sweeps every
// router and splices the cached lifts; retuning the value changes
// nothing the fingerprints model, so ReExplain returns the previous
// report on its fast path. Edits that change routing (action flips,
// preference moves) are left to serve-mix's /diff traffic: they
// recompute nearly every router and some break the intent.
func pickSites(dep config.Deployment, seed int64, n int) ([]whatifSite, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var sites []whatifSite
	for tries := 0; tries < 256 && len(sites) < n; tries++ {
		added, edits := netgen.Perturb(dep, rng.Int63(), 1)
		if len(edits) != 1 || edits[0].Kind != "med-change" {
			continue
		}
		at, _, _ := strings.Cut(edits[0].Detail, ":")
		name := edits[0].Router + " " + at
		if seen[name] {
			continue
		}
		seen[name] = true
		for k := 0; k < 4096; k++ {
			retuned, re := netgen.Perturb(added, rng.Int63(), 1)
			if len(re) == 1 && re[0].Kind == "med-change" && re[0].Router == edits[0].Router && strings.HasPrefix(re[0].Detail, at+":") {
				sites = append(sites, whatifSite{added, retuned, name})
				break
			}
		}
	}
	if len(sites) < n {
		return nil, fmt.Errorf("found %d of %d MED edit sites", len(sites), n)
	}
	return sites, nil
}

// whatifSites is how many edit sites a run cycles through.
const whatifSites = 4

// runWhatIf: one warm explainer re-explains a seeded sequence of
// what-if edits. Each cycle adds a MED line at one site, retunes it,
// then undoes both by returning to the base deployment.
func runWhatIf(r *runner) error {
	var (
		job   *reportJob
		sites []whatifSite
		e     *core.Explainer
		base  string
	)
	err := r.setup(1, func() error {
		wl, dep, opts, err := buildFabric(r.ctx, r.cfg.sizes.whatifRouters, whatifGraph, r.cfg.seed, whatifMaxPathLen)
		if err != nil {
			return err
		}
		copts := core.DefaultOptions()
		copts.Synth = opts
		job = &reportJob{name: "whatif", net: wl.Net, reqs: wl.Requirements(), dep: dep, opts: copts}
		if sites, err = pickSites(dep, r.cfg.seed, whatifSites); err != nil {
			return err
		}
		if e, err = core.NewExplainer(job.net, job.reqs, dep, copts); err != nil {
			return err
		}
		base, err = e.ReportContext(r.ctx)
		return err
	})
	if err != nil {
		return err
	}

	var plain, traced series
	var eng engineSum
	var dirty, spliced, recomputed, fast []float64
	want := map[int]string{} // expected report, by edited deployment

	// op runs op number i of the cycle sequence and checks its report.
	// Undos must reproduce the base report. The first time a part meets
	// an edited deployment (in its untimed first pass) the report becomes
	// the one every later op on it must repeat; for the deployments this
	// part owns (index modulo the part count) it must also equal a cold
	// explainer's report. A cold report costs about sixteen ops, so the
	// run's parts share the cold checks: every edited deployment gets one.
	op := func(i int, s *series) error {
		site, phase := sites[(i/3)%len(sites)], i%3
		target, what := site.add, "add MED "+site.name
		switch phase {
		case 1:
			target, what = site.retune, "retune MED "+site.name
		case 2:
			target, what = job.dep, "undo MED "+site.name
		}
		tracing := s == &traced
		var before fields
		if tracing {
			before = fieldsOf(e.Stats())
		}
		var dr *core.DiffReport
		var err error
		run := func() { dr, err = e.ReExplainContext(r.ctx, core.Delta{Deployment: target}) }
		t0 := time.Now()
		if s == nil {
			run()
		} else {
			s.time(run)
		}
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("op %d (%s): %w", i, what, err)
		}
		if tracing {
			ds := fieldsOf(dr.Stats)
			ok := true
			d, sp, rc, fp := ds.get("PredictedDirty", &ok), ds.get("Spliced", &ok), ds.get("Recomputed", &ok), ds.get("FastPath", &ok)
			if ok {
				dirty, spliced, recomputed, fast = append(dirty, d), append(spliced, sp), append(recomputed, rc), append(fast, fp)
			}
			eng.add(before, fieldsOf(e.Stats()), true, 1)
			r.tr.add(span{Op: int64(i), Name: "core.reexplain", StartNS: r.tr.at(t0), EndNS: r.tr.at(t1),
				Attrs: map[string]float64{"phase": float64(phase), "dirty": d, "spliced": sp, "recomputed": rc, "fast_path": fp}})
		}
		if phase == 2 {
			if dr.Report != base {
				return fmt.Errorf("op %d (%s): report differs from the base report", i, what)
			}
			return nil
		}
		key := (i/3%len(sites))*2 + phase
		ref, seen := want[key]
		switch {
		case seen:
		case key%r.cfg.parts == r.cfg.part:
			ce, err := core.NewExplainer(job.net, job.reqs, target, job.opts)
			if err == nil {
				ref, err = ce.ReportContext(r.ctx)
			}
			if err != nil {
				return fmt.Errorf("op %d (%s): cold explainer: %w", i, what, err)
			}
		default:
			ref = dr.Report
		}
		want[key] = ref
		if dr.Report != ref {
			return fmt.Errorf("op %d (%s): report differs from the reference report", i, what)
		}
		return nil
	}

	// One untimed pass over every site first: it fills the caches each
	// later pass finds warm.
	r.warm(func() {
		for i := 0; i < 3*len(sites); i++ {
			r.attempt(op(i, nil))
		}
	})
	cycles, skip := r.share(r.opCount(whatifCyclesPerSecond))
	first := 3 * (len(sites) + skip)
	stop := r.opDeadline()
	for i := first; i < first+3*cycles && time.Now().Before(stop); i++ {
		s := &plain
		if r.tr != nil && (i/3)%2 == 1 {
			s = &traced
		}
		r.attempt(op(i, s))
	}
	r.recordOps(&plain)
	if r.tr == nil {
		return nil
	}
	r.recordRuntime(plain.rt, len(plain.lat))
	r.recordOverhead(plain.lat, traced.lat)
	eng.record(r)
	r.set("core.whatif_dirty_routers", mean(dirty), len(dirty))
	r.set("core.whatif_spliced", mean(spliced), len(spliced))
	r.set("core.whatif_recomputed", mean(recomputed), len(recomputed))
	r.set("core.whatif_fast_path_share", mean(fast), len(fast))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
