package core

import (
	"fmt"
	"testing"

	"repro/internal/netgen"
	"repro/internal/synth"
	"repro/internal/topology"
)

// whatifFabric is the populated 60-router random fabric
// (topology.Random(60, 2.5, 8), candidate paths of at most 7 hops), the
// graph behind netperf's whatif-edits workload.
func whatifFabric(tb testing.TB) differentialWorkload { return randomFabric(tb, 60, 8, 7) }

// randomFabric is the populated no-transit fabric over
// topology.Random(n, 2.5, graph), synthesized with candidate paths of
// at most hops nodes and 8 candidates per node, as netperf builds its
// fabrics.
func randomFabric(tb testing.TB, n int, graph int64, hops int) differentialWorkload {
	tb.Helper()
	wl, err := netgen.NoTransit(fmt.Sprintf("rand_%d_g%d", n, graph), topology.Random(n, 2.5, graph))
	if err != nil {
		tb.Fatal(err)
	}
	netgen.Populate(wl)
	sopts := synth.DefaultOptions()
	sopts.MaxPathLen = hops
	sopts.MaxCandidatesPerNode = 8
	res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), sopts)
	if err != nil {
		tb.Fatalf("synthesize %s: %v", wl.Name, err)
	}
	return differentialWorkload{wl.Name, wl.Net, wl.Requirements(), res.Deployment, sopts}
}

// TestLiftCandidatesFromLocalPaths pins the lift's path input: over the
// candidates through the router (Encoding.PathInfosThrough), which the
// lift reads, liftCandidates
// must return the same clauses, in the same order and with
// pointer-identical terms, as over the whole network's PathInfos.
func TestLiftCandidatesFromLocalPaths(t *testing.T) {
	for _, w := range append(differentialWorkloads(t), whatifFabric(t)) {
		t.Run(w.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Synth = w.synth
			e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, router := range e.reportRouters() {
				enc := seedEncoding(t, e, router, AllTargets(w.dep[router]))
				holeNames := map[string]bool{}
				for n := range enc.HoleVars {
					holeNames[n] = true
				}
				got, err := e.liftCandidates(router, enc.PathInfosThrough(router), holeNames)
				if err != nil {
					t.Fatal(err)
				}
				want, err := e.liftCandidates(router, enc.PathInfos(), holeNames)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d candidates from the local paths, %d from the whole network's", router, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.req.String() != w.req.String() || g.term != w.term || g.width != w.width {
						t.Fatalf("%s: candidate %d is %s (width %d) from the local paths, %s (width %d) from the whole network's",
							router, i, g.req, g.width, w.req, w.width)
					}
				}
				total += len(want)
			}
			if total == 0 {
				t.Fatal("no router has a lift candidate")
			}
		})
	}
}
