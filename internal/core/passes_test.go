package core

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestMemoizedPassesMatchColdRun checks the simplifier's pass depth,
// memoized per normal-form entry when it is published, against the
// deepest rounds a counting run (rewrite.CountFires) meets over the
// whole cold normalization: for every router seed of the three
// scenarios and a netgen workload, first while 4 goroutines fill one
// cold shared cache in different orders (racing computations resolve
// first-wins), then once the cache is warm.
func TestMemoizedPassesMatchColdRun(t *testing.T) {
	var seeds []logic.Term
	for _, sc := range scenarios.All() {
		seeds = append(seeds, routerSeeds(t, sc.Net, sc.Requirements(), synthScenario(t, sc), synth.DefaultOptions())...)
	}
	wl, err := netgen.Grid(4, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	sopts := synth.DefaultOptions()
	sopts.MaxPathLen = 7
	sopts.MaxCandidatesPerNode = 8
	res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, routerSeeds(t, wl.Net, wl.Requirements(), res.Deployment, sopts)...)

	want := make([]int, len(seeds))
	for i, seed := range seeds {
		_, want[i] = rewrite.CountFires(seed)
	}
	cache := rewrite.NewCache()
	const goroutines = 4
	for _, phase := range []string{"cold", "warm"} {
		got := make([][]int, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			got[g] = make([]int, len(seeds))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				simp := rewrite.NewShared(cache)
				for k := range seeds {
					i := (k + g*len(seeds)/goroutines) % len(seeds)
					simp.Simplify(seeds[i])
					got[g][i] = simp.Passes
				}
			}(g)
		}
		wg.Wait()
		for i := range seeds {
			for g := range got {
				if got[g][i] != want[i] {
					t.Errorf("%s cache, seed %d, goroutine %d: memoized Passes %d, counting run %d",
						phase, i, g, got[g][i], want[i])
				}
			}
		}
	}
}

// routerSeeds returns the seed specification of every configured
// router, explained in full.
func routerSeeds(t *testing.T, net *topology.Network, reqs []spec.Requirement, dep config.Deployment, sopts synth.Options) []logic.Term {
	t.Helper()
	opts := DefaultOptions()
	opts.Lift = false
	opts.Synth = sopts
	e, err := NewExplainer(net, reqs, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	routers := make([]string, 0, len(dep))
	for r := range dep {
		routers = append(routers, r)
	}
	sort.Strings(routers)
	var seeds []logic.Term
	for _, r := range routers {
		ex, err := e.ExplainAll(r)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, ex.Seed)
	}
	return seeds
}
