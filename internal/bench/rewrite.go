package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

// RewriteTable measures the memoized one-shot normalizer across the
// seed scenarios and the netgen presets: how much each deployment's
// seeds shrink, how many propagation rounds the deepest conjunction
// needed (the old engine re-traversed the whole term once per round;
// the normalizer localizes the loop to the conjunction that needs it),
// how many distinct subterm normal forms the session cache holds, and
// what fraction of subterm lookups it answered. A high hit rate means
// sibling routers are reusing one another's normalization work.
func RewriteTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "rewrite (normalizer + NF cache)",
		Caption: "Single-pass normalizer over every configured router (lift off). seed/simpl atoms are summed across routers; max-passes is 1 + the deepest conjunction's propagation rounds; rule-fires counts per distinct subterm; nf-entries and nf-hit% describe the session's shared normal-form cache after the whole run.",
		Columns: []string{"workload", "routers", "seed-atoms", "simpl-atoms", "max-passes", "rule-fires", "nf-entries", "nf-hit%", "explain-ms"},
	}

	type job struct {
		name  string
		build func() (*core.Explainer, error)
	}
	var jobs []job
	for _, sc := range scenarios.All() {
		sc := sc
		jobs = append(jobs, job{name: sc.Name, build: func() (*core.Explainer, error) {
			res, err := synthesizeScenario(ctx, sc)
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.Lift = false
			return core.NewExplainer(sc.Net, sc.Requirements(), res.Deployment, opts)
		}})
	}
	for _, wl := range satWorkloads() {
		wl := wl
		jobs = append(jobs, job{name: wl.Name, build: func() (*core.Explainer, error) {
			sopts := synth.DefaultOptions()
			sopts.MaxPathLen = 7
			sopts.MaxCandidatesPerNode = 8
			res, err := synth.SynthesizeContext(ctx, wl.Net, wl.Sketch, wl.Requirements(), sopts)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", wl.Name, err)
			}
			opts := core.DefaultOptions()
			opts.Lift = false
			opts.Synth = sopts
			return core.NewExplainer(wl.Net, wl.Requirements(), res.Deployment, opts)
		}})
	}

	for _, j := range jobs {
		ex, err := j.build()
		if err != nil {
			return nil, err
		}
		routers := make([]string, 0, len(ex.Deployment))
		for r := range ex.Deployment {
			routers = append(routers, r)
		}
		sort.Strings(routers)

		seedAtoms, simplAtoms, maxPasses := 0, 0, 0
		seeds := make([]logic.Term, 0, len(routers))
		start := time.Now()
		for _, r := range routers {
			e, err := ex.ExplainAllContext(ctx, r)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", j.name, r, err)
			}
			seedAtoms += e.SeedSize
			simplAtoms += e.SimplifiedSize
			if e.Passes > maxPasses {
				maxPasses = e.Passes
			}
			seeds = append(seeds, e.Seed)
		}
		explainMS := float64(time.Since(start).Microseconds()) / 1000
		// Rule fires are counted after the timed sweep, in a counting
		// run per seed, which leaves the session's cache alone.
		fires := 0
		for _, seed := range seeds {
			counts, _ := rewrite.CountFires(seed)
			for _, n := range counts {
				fires += n
			}
		}
		st := ex.Stats()
		hitRate := 0.0
		if lookups := st.NormCacheHits + st.NormCacheMisses; lookups > 0 {
			hitRate = 100 * float64(st.NormCacheHits) / float64(lookups)
		}
		t.AddRow(j.name, len(routers), seedAtoms, simplAtoms, maxPasses, fires,
			st.NormCacheEntries, fmt.Sprintf("%.1f", hitRate),
			fmt.Sprintf("%.1f", explainMS))
	}
	return t, nil
}
