package rewrite_test

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/rewrite"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

// BenchmarkSimplifyNormalizer measures cold one-shot normalization of
// each paper scenario's seed specification (largest last): a fresh
// simplifier (empty normal-form cache) per iteration.
func BenchmarkSimplifyNormalizer(b *testing.B) {
	for _, name := range []string{"scenario1", "scenario2", "scenario3"} {
		b.Run(name, func(b *testing.B) {
			sc, err := scenarios.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := synth.NewEncoder(sc.Net, sc.Sketch, synth.DefaultOptions()).Encode(sc.Requirements())
			if err != nil {
				b.Fatal(err)
			}
			seed := enc.Conjunction()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rewrite.New().Simplify(seed)
			}
		})
	}
}

// BenchmarkSimplifyWarmCache measures the same seeds answered from a
// pre-populated shared normal-form cache — the session steady state,
// where a repeat query costs one cache probe per distinct subterm it
// reaches before hitting memoized territory.
func BenchmarkSimplifyWarmCache(b *testing.B) {
	for _, name := range []string{"scenario1", "scenario2", "scenario3"} {
		b.Run(name, func(b *testing.B) {
			sc, err := scenarios.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := synth.NewEncoder(sc.Net, sc.Sketch, synth.DefaultOptions()).Encode(sc.Requirements())
			if err != nil {
				b.Fatal(err)
			}
			seed := enc.Conjunction()
			cache := rewrite.NewCache()
			rewrite.NewShared(cache).Simplify(seed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rewrite.NewShared(cache).Simplify(seed)
			}
		})
	}
}

// BenchmarkSimplifyFabricSeed measures a cold Simplify (fresh
// simplifier, empty normal-form cache) of the widest router seed of the
// populated 60-router random fabric: top-level conjunctions of several
// hundred conjuncts that equality propagation (S14) walks over many
// rounds, the shape that dominates unlifted reports at scale.
func BenchmarkSimplifyFabricSeed(b *testing.B) {
	seed := widestSeed(fabricSeeds(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simplified = rewrite.New().Simplify(seed)
	}
}

// simplified keeps the benchmarked result live.
var simplified logic.Term
