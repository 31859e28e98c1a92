package bench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/rewrite"
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

	err := eachWorkload(ctx, false, func(w *workload) error {
		opts := w.opts
		opts.Lift = false
		ex, err := core.NewExplainer(w.net, w.reqs, w.res.Deployment, opts)
		if err != nil {
			return err
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
				return fmt.Errorf("%s %s: %w", w.name, r, err)
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
		t.AddRow(w.name, len(routers), seedAtoms, simplAtoms, maxPasses, fires,
			st.NormCacheEntries, fmt.Sprintf("%.1f", hitRate),
			fmt.Sprintf("%.1f", explainMS))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
