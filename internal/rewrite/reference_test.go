package rewrite_test

import (
	"testing"

	"repro/internal/rewrite"
)

// TestSimplifyMatchesReferenceLoop pins the semi-naive propagation
// against the whole-list loop it replaced, on router seeds (lift off):
// the three scenarios and six netgen.Perturb variants of each,
// grid_4x4, fattree_4, rand_24_s42 and the populated 60-router fabric
// at 7 hops. Each workload's seeds run in router order through one
// cache per side, as a report's session runs them, and every seed must
// give the pointer-identical normal form, the same Passes, and the same
// rule fires and pass depth from Cache.Recount.
func TestSimplifyMatchesReferenceLoop(t *testing.T) {
	sets := append(scenarioSeedSets(t), netgenSeedSets(t)...)
	sets = append(sets, seedSet{"rand_60_g8", fabricSeeds(t)})
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			got, want := rewrite.NewShared(rewrite.NewCache()), rewrite.NewReference(rewrite.NewCache())
			for i, seed := range set.seeds {
				if err := rewrite.SameAsReference(got, want, seed); err != nil {
					t.Fatalf("seed %d: %v", i, err)
				}
			}
		})
	}
}
