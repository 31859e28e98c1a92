package rewrite_test

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/rewrite"
)

// TestReplayMatchesFullLoop pins the replayed root propagation against
// the full semi-naive loop on every router seed of the sets
// TestSimplifyMatchesReferenceLoop runs, plus fabric-stream's
// 300-router fabric at 6 hops. Each set's base seed is recorded once as
// the reference, through the cache the replays use, as a session does.
// Seeds run in router order through one cache per side, and every seed
// must give the pointer-identical normal form and the same Passes (a
// replay counts no rule fires). On the two fabrics the replay, not the
// fallback, must answer every root conjunction that differs from the
// base seed's.
func TestReplayMatchesFullLoop(t *testing.T) {
	sets := append(scenarioReplaySets(t), netgenReplaySets(t)...)
	fabrics := map[string]bool{}
	for _, f := range []replaySet{fabricSet(t, 60, 8, 7), fabricSet(t, 300, 7, 6)} {
		fabrics[f.name] = true
		sets = append(sets, f)
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			replays, fallbacks := checkReplay(t, set, fabrics[set.name])
			t.Logf("%d seeds: %d replays, %d fallbacks", len(set.seeds), replays, fallbacks)
		})
	}
}

// checkReplay runs one set through both sides and returns the replays
// and fallbacks counted; with noFallback, every seed other than the
// base seed must replay.
func checkReplay(t *testing.T, set replaySet, noFallback bool) (replays, fallbacks int) {
	t.Helper()
	rc, fc := rewrite.NewCache(), rewrite.NewCache()
	_, ref := rewrite.NewShared(rc).Record(set.base)
	for i, seed := range set.seeds {
		got, want := rewrite.NewShared(rc), rewrite.NewShared(fc)
		got.Ref = ref
		if err := rewrite.SameAsFullLoop(got, want, seed); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		replays += got.Replays
		fallbacks += got.ReplayFallbacks
		if noFallback && seed != set.base && got.Replays != 1 {
			t.Fatalf("seed %d: root conjunction not replayed (%d fallbacks)", i, got.ReplayFallbacks)
		}
	}
	return replays, fallbacks
}

// TestReplayDivergenceShapes replays edited conjunctions against a
// recorded reference for each way a slot can leave it: a binding that
// differs in value, binder or round; a duplicate whose replacer or
// partner is gone; a new conjunct that duplicates, complements or
// absorbs a following one, or is absorbed by one; and an S13 drop whose
// cause is gone. Each must replay (not fall back) and match the full
// loop's normal form and Passes.
func TestReplayDivergenceShapes(t *testing.T) {
	p, q, r := logic.NewBoolVar("p"), logic.NewBoolVar("q"), logic.NewBoolVar("r")
	i, j := logic.NewIntVar("i", 0, 3), logic.NewIntVar("j", 0, 3)
	one, two := logic.NewInt(1), logic.NewInt(2)
	bind, bind2 := logic.Eq(i, one), logic.Eq(i, two)
	jlt := logic.Lt(j, two)
	imp := func(a, b logic.Term) logic.Term { return logic.Implies(a, b) }
	cases := []struct {
		name         string
		base, edited []logic.Term
	}{
		{"binding-value", []logic.Term{bind, imp(bind, p), imp(p, jlt)}, []logic.Term{bind2, imp(bind, p), imp(p, jlt)}},
		{"binding-missing", []logic.Term{bind, imp(bind, p), imp(p, q), r}, []logic.Term{imp(bind, p), imp(p, q), r}},
		{"binding-new", []logic.Term{imp(bind, p), imp(p, q), r}, []logic.Term{bind, imp(bind, p), imp(p, q), r}},
		{"binder-moved", []logic.Term{bind, imp(bind, jlt), jlt, imp(bind, p)}, []logic.Term{imp(bind, jlt), jlt, imp(bind, p), bind}},
		{"binding-later", []logic.Term{p, imp(p, q), imp(q, r), imp(r, jlt)}, []logic.Term{imp(p, q), q, imp(q, r), imp(r, jlt)}},
		{"dup-replacer-gone", []logic.Term{bind, imp(bind, jlt), jlt, imp(bind, p)}, []logic.Term{bind, jlt, imp(bind, p)}},
		{"dup-partner-gone", []logic.Term{jlt, bind, imp(bind, jlt), imp(bind, p)}, []logic.Term{bind, imp(bind, jlt), imp(bind, p)}},
		{"new-dup", []logic.Term{bind, imp(bind, jlt), imp(bind, p)}, []logic.Term{bind, q, imp(bind, jlt), imp(bind, p), jlt}},
		{"new-complement", []logic.Term{bind, imp(bind, logic.Or(p, q)), r}, []logic.Term{bind, imp(bind, logic.Or(p, q)), r, logic.Not(logic.Or(p, q))}},
		{"complement-of-new", []logic.Term{bind, imp(bind, logic.Not(logic.Or(p, q))), r}, []logic.Term{bind, imp(bind, logic.Not(logic.Or(p, q))), r, logic.Or(p, q)}},
		{"new-absorbs", []logic.Term{bind, imp(bind, p), logic.Or(q, r)}, []logic.Term{bind, imp(bind, p), logic.Or(q, r), imp(bind, q)}},
		{"new-absorbed", []logic.Term{bind, imp(bind, logic.Or(p, jlt)), r}, []logic.Term{bind, imp(bind, logic.Or(p, jlt)), r, jlt}},
		{"new-meets-complement", []logic.Term{bind, logic.Not(logic.Or(p, q)), r}, []logic.Term{bind, logic.Not(logic.Or(p, q)), r, imp(bind, logic.Or(p, q))}},
		{"absorber-gone", []logic.Term{bind, p, imp(bind, logic.Or(p, q)), r}, []logic.Term{bind, imp(bind, logic.Or(p, q)), r}},
		{"absorbed-kept", []logic.Term{bind, logic.Or(p, jlt), imp(bind, p), r}, []logic.Term{bind, logic.Or(p, jlt), imp(bind2, p), r}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := rewrite.NewCache()
			_, ref := rewrite.NewShared(c).Record(logic.And(tc.base...))
			got := rewrite.NewShared(c)
			got.Ref = ref
			edited := logic.And(tc.edited...)
			if err := rewrite.SameAsFullLoop(got, rewrite.NewShared(rewrite.NewCache()), edited); err != nil {
				t.Fatal(err)
			}
			if got.Replays != 1 {
				t.Fatalf("not replayed (%d fallbacks)", got.ReplayFallbacks)
			}
		})
	}
}
