package core

import (
	"context"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

// Lift-stage benchmarks. BenchmarkLiftWarm repeats the whole-network
// report through ONE explainer — the usage pattern of iterative
// workflows (explain, edit, re-validate) — so every section comes from
// the report cache. BenchmarkLiftCold builds a fresh explainer and
// explains every router, paying the full setup every time. The
// warm/cold gap isolates what reuse buys end to end.

func benchDeployment(b *testing.B, sc *scenarios.Scenario) (config.Deployment, []string) {
	b.Helper()
	res, err := synth.Synthesize(sc.Net, sc.Sketch, sc.Requirements(), synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	routers := make([]string, 0, len(res.Deployment))
	for name := range res.Deployment {
		routers = append(routers, name)
	}
	sort.Strings(routers)
	return res.Deployment, routers
}

func explainRouters(b *testing.B, e *Explainer, routers []string) {
	b.Helper()
	ctx := context.Background()
	for _, r := range routers {
		if _, err := e.ExplainAllContext(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiftWarm(b *testing.B) {
	for _, sc := range scenarios.All() {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			dep, _ := benchDeployment(b, sc)
			e, err := NewExplainer(sc.Net, sc.Requirements(), dep, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			// One untimed report fills the session's caches.
			ctx := context.Background()
			if _, err := e.ReportContext(ctx); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ReportContext(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLiftCold(b *testing.B) {
	for _, sc := range scenarios.All() {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			dep, routers := benchDeployment(b, sc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewExplainer(sc.Net, sc.Requirements(), dep, DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				explainRouters(b, e, routers)
			}
		})
	}
}

// BenchmarkReExplainSplice measures the what-if sweep on whatif-edits'
// graph: one warm lifted explainer on the 60-router fabric alternates
// ReExplain between the base deployment and a copy with one added MED
// line. The line changes only the edited router's own locality key
// (its symbolized config gains a hole), and the untimed round caches
// both generations' sections, so every timed op is an all-hit sweep:
// per router, a symbolization, a key and one report-cache hit.
func BenchmarkReExplainSplice(b *testing.B) {
	w := whatifFabric(b)
	var edited config.Deployment
	for seed := int64(1); edited == nil; seed++ {
		dep, edits := netgen.Perturb(w.dep, seed, 1)
		if len(edits) == 1 && edits[0].Kind == "med-change" && strings.Contains(edits[0].Detail, ": med 0 -> ") {
			edited = dep
		}
	}
	opts := DefaultOptions()
	opts.Synth = w.synth
	e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.ReportContext(ctx); err != nil {
		b.Fatal(err)
	}
	deps := []config.Deployment{edited, w.dep}
	// One untimed round caches the sections of both generations.
	for _, dep := range deps {
		if _, err := e.ReExplainContext(ctx, Delta{Deployment: dep}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dr, err := e.ReExplainContext(ctx, Delta{Deployment: deps[i%2]})
		if err != nil {
			b.Fatal(err)
		}
		if st := dr.Stats; st.Recomputed != 0 || st.Spliced != len(w.dep) {
			b.Fatalf("op %d: %d recomputed, %d of %d routers spliced", i, st.Recomputed, st.Spliced, len(w.dep))
		}
	}
}

// BenchmarkReportFabricCold measures one cold unlifted report of
// fabric-stream's input, the populated 300-router fabric
// (topology.Random(300, 2.5, 7), candidate paths of at most 6 hops),
// written by a fresh explainer each op: the session base, every
// router's encode and simplification and the root replays are paid
// every time. Its bytes and allocations per op are what the unlifted
// scale path spends per report; retained-MB/op is what the explainer
// still holds once the report is written (its session's base, encode
// cache, normal forms and report sections): the live heap after a
// collection with the explainer referenced, minus the live heap before
// it was built, measured with the timer stopped.
func BenchmarkReportFabricCold(b *testing.B) {
	w := randomFabric(b, 300, 7, 6)
	opts := DefaultOptions()
	opts.Synth = w.synth
	opts.Lift = false
	ctx := context.Background()
	var retained int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.WriteReport(ctx, io.Discard); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained += liveHeap() - before
		runtime.KeepAlive(e)
		b.StartTimer()
	}
	b.ReportMetric(float64(retained)/float64(b.N)/1e6, "retained-MB/op")
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkReportFabricLiftedCold measures one cold lifted report of
// the 60-router what-if fabric (whatifFabric) by a fresh explainer each
// op: every router's section is encoded, simplified and lifted, and
// each lift's sufficiency check decides the router's empty block.
func BenchmarkReportFabricLiftedCold(b *testing.B) {
	w := whatifFabric(b)
	opts := DefaultOptions()
	opts.Synth = w.synth
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.WriteReport(ctx, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
