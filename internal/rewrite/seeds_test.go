package rewrite_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// seedSet is one workload's router seeds, in router-name order.
type seedSet struct {
	name  string
	seeds []logic.Term
}

// replaySet is one workload's router seeds with the seed of its
// session base, the reference their root conjunctions replay.
type replaySet struct {
	seedSet
	base logic.Term
}

// routerSeeds returns the raw seed specification (steps 1 and 2, lift
// off) of every configured router of the deployment.
func routerSeeds(tb testing.TB, net *topology.Network, reqs []spec.Requirement, dep config.Deployment, sopts synth.Options) []logic.Term {
	tb.Helper()
	seeds, _ := routerSeedsAndBase(tb, net, reqs, dep, sopts)
	return seeds
}

// routerSeedsAndBase is routerSeeds that also returns the seed of the
// explainer session's base.
func routerSeedsAndBase(tb testing.TB, net *topology.Network, reqs []spec.Requirement, dep config.Deployment, sopts synth.Options) ([]logic.Term, logic.Term) {
	tb.Helper()
	opts := core.DefaultOptions()
	opts.Lift = false
	opts.Synth = sopts
	e, err := core.NewExplainer(net, reqs, dep, opts)
	if err != nil {
		tb.Fatal(err)
	}
	routers := make([]string, 0, len(dep))
	for r := range dep {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	seeds := make([]logic.Term, 0, len(routers))
	for _, r := range routers {
		ex, err := e.ExplainAll(r)
		if err != nil {
			tb.Fatalf("%s: %v", r, err)
		}
		seeds = append(seeds, ex.Seed)
	}
	base, err := e.Session.PrepareScoped(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return seeds, base.Seed()
}

func synthesize(tb testing.TB, name string, net *topology.Network, sketch config.Deployment, reqs []spec.Requirement, sopts synth.Options) config.Deployment {
	tb.Helper()
	res, err := synth.Synthesize(net, sketch, reqs, sopts)
	if err != nil {
		tb.Fatalf("synthesize %s: %v", name, err)
	}
	return res.Deployment
}

// scenarioSeedSets returns the router seeds of the three paper
// scenarios and of each scenario's netgen.Perturb variants, seeds 1-6
// (one edit each).
func scenarioSeedSets(tb testing.TB) []seedSet { return seedSets(scenarioReplaySets(tb)) }

// scenarioReplaySets is scenarioSeedSets with each set's base seed.
func scenarioReplaySets(tb testing.TB) []replaySet {
	tb.Helper()
	var out []replaySet
	for _, sc := range scenarios.All() {
		sopts := synth.DefaultOptions()
		reqs := sc.Requirements()
		dep := synthesize(tb, sc.Name, sc.Net, sc.Sketch, reqs, sopts)
		out = append(out, newReplaySet(tb, sc.Name, sc.Net, reqs, dep, sopts))
		for seed := int64(1); seed <= 6; seed++ {
			edited, _ := netgen.Perturb(dep, seed, 1)
			name := fmt.Sprintf("%s_perturb%d", sc.Name, seed)
			out = append(out, newReplaySet(tb, name, sc.Net, reqs, edited, sopts))
		}
	}
	return out
}

// netgenSeedSets returns the router seeds of grid_4x4, fattree_4 and
// rand_24_s42, built as the diff and sat tables build them.
func netgenSeedSets(tb testing.TB) []seedSet { return seedSets(netgenReplaySets(tb)) }

// netgenReplaySets is netgenSeedSets with each set's base seed.
func netgenReplaySets(tb testing.TB) []replaySet {
	tb.Helper()
	var out []replaySet
	for _, build := range []func() (*netgen.Workload, error){
		func() (*netgen.Workload, error) { return netgen.Grid(4, 4, false) },
		func() (*netgen.Workload, error) { return netgen.FatTree(4, false) },
		func() (*netgen.Workload, error) { return netgen.Random(24, 3.0, 42, false) },
	} {
		wl, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		sopts := synth.DefaultOptions()
		sopts.MaxPathLen = 7
		sopts.MaxCandidatesPerNode = 8
		reqs := wl.Requirements()
		dep := synthesize(tb, wl.Name, wl.Net, wl.Sketch, reqs, sopts)
		out = append(out, newReplaySet(tb, wl.Name, wl.Net, reqs, dep, sopts))
	}
	return out
}

// fabricSeeds returns the router seeds of the populated 60-router
// random fabric (topology.Random(60, 2.5, 8), candidate paths of at
// most 7 hops), the graph behind netperf's whatif-edits workload.
func fabricSeeds(tb testing.TB) []logic.Term { return fabricSet(tb, 60, 8, 7).seeds }

// fabricSet returns the router seeds and base seed of the populated
// random fabric topology.Random(n, 2.5, graph) with candidate paths of
// at most hops hops, 8 per node: netperf's whatif-edits graph is
// (60, 8, 7), fabric-stream's (300, 7, 6).
func fabricSet(tb testing.TB, n int, graph int64, hops int) replaySet {
	tb.Helper()
	name := fmt.Sprintf("rand_%d_g%d", n, graph)
	wl, err := netgen.NoTransit(name, topology.Random(n, 2.5, graph))
	if err != nil {
		tb.Fatal(err)
	}
	netgen.Populate(wl)
	sopts := synth.DefaultOptions()
	sopts.MaxPathLen = hops
	sopts.MaxCandidatesPerNode = 8
	reqs := wl.Requirements()
	dep := synthesize(tb, wl.Name, wl.Net, wl.Sketch, reqs, sopts)
	return newReplaySet(tb, name, wl.Net, reqs, dep, sopts)
}

func newReplaySet(tb testing.TB, name string, net *topology.Network, reqs []spec.Requirement, dep config.Deployment, sopts synth.Options) replaySet {
	tb.Helper()
	seeds, base := routerSeedsAndBase(tb, net, reqs, dep, sopts)
	return replaySet{seedSet{name, seeds}, base}
}

func seedSets(rs []replaySet) []seedSet {
	out := make([]seedSet, len(rs))
	for i, r := range rs {
		out[i] = r.seedSet
	}
	return out
}

// widestSeed returns the seed with the most top-level conjuncts.
func widestSeed(seeds []logic.Term) logic.Term {
	var best logic.Term
	width := -1
	for _, s := range seeds {
		if n := len(logic.Conjuncts(s)); n > width {
			best, width = s, n
		}
	}
	return best
}
