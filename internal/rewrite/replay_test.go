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
// base seed's, and normalize only its fresh raw conjuncts: those the
// base seed's root does not hold.
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
	baseRaw := map[logic.Term]bool{}
	for _, c := range set.base.(*logic.Apply).Args {
		baseRaw[c] = true
	}
	var normalized int
	defer rewrite.CountRawNormalized(&normalized)()
	for i, seed := range set.seeds {
		got, want := rewrite.NewShared(rc), rewrite.NewShared(fc)
		got.Ref = ref
		normalized = 0
		if err := rewrite.SameAsFullLoop(got, want, seed); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		replays += got.Replays
		fallbacks += got.ReplayFallbacks
		if !noFallback || seed == set.base {
			continue
		}
		if got.Replays != 1 {
			t.Fatalf("seed %d: root conjunction not replayed (%d fallbacks)", i, got.ReplayFallbacks)
		}
		fresh := 0
		for _, c := range seed.(*logic.Apply).Args {
			if !baseRaw[c] {
				fresh++
			}
		}
		if normalized != fresh {
			t.Fatalf("seed %d: %d raw conjuncts normalized, %d fresh", i, normalized, fresh)
		}
	}
	return replays, fallbacks
}

// TestReplayDivergenceShapes replays edited conjunctions against a
// recorded reference for each way a slot can leave it: a binding that
// differs in value, binder or round; a duplicate whose replacer or
// partner is gone; a new conjunct that duplicates, complements or
// absorbs a following one, or is absorbed by one; and an S13 drop whose
// cause is gone. The raw cases edit the raw operand list the way
// FuzzReplayRawEdits does: a run replaced, inserted, deleted or moved;
// a conjunct that normalizes to true, to false or to a conjunction; a
// duplicate of a later conjunct, a complement (of either sign) or an
// absorber added; a first occurrence or an absorber removed. Each must replay (not fall
// back) and match the full loop's normal form and Passes.
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
		{"raw-replaced-run", []logic.Term{bind, imp(bind, p), imp(p, q), imp(q, jlt), r}, []logic.Term{bind, imp(r, q), imp(q, p), imp(q, jlt), r}},
		{"raw-inserted-run", []logic.Term{bind, imp(bind, p), imp(p, jlt), r}, []logic.Term{bind, imp(bind, p), q, imp(q, r), imp(p, jlt), r}},
		{"raw-deleted-run", []logic.Term{bind, imp(bind, p), imp(p, q), imp(q, jlt), r}, []logic.Term{bind, imp(q, jlt), r}},
		{"raw-moved-run", []logic.Term{bind, imp(bind, p), q, r, imp(p, jlt)}, []logic.Term{q, r, bind, imp(bind, p), imp(p, jlt)}},
		{"raw-true", []logic.Term{bind, imp(bind, p), r}, []logic.Term{bind, imp(q, q), imp(bind, p), r}},
		{"raw-false", []logic.Term{bind, imp(bind, p), r}, []logic.Term{bind, imp(bind, p), logic.And(q, logic.Not(q)), r}},
		{"raw-conjunction", []logic.Term{bind, imp(bind, p), r}, []logic.Term{bind, logic.And(q, imp(bind, jlt)), imp(bind, p), r}},
		{"raw-dup-of-later", []logic.Term{bind, imp(bind, p), q, r}, []logic.Term{r, bind, imp(bind, p), q, r}},
		{"raw-complement", []logic.Term{bind, imp(bind, p), q, r}, []logic.Term{bind, imp(bind, p), q, logic.Not(r), r}},
		{"raw-complemented", []logic.Term{bind, imp(bind, p), logic.Not(q), r}, []logic.Term{bind, imp(bind, p), logic.Not(q), q, r}},
		{"raw-absorber", []logic.Term{bind, imp(bind, p), logic.Or(q, r), jlt}, []logic.Term{bind, imp(bind, p), r, logic.Or(q, r), jlt}},
		{"raw-first-removed", []logic.Term{r, bind, imp(bind, p), q, r}, []logic.Term{bind, imp(bind, p), q, r}},
		{"raw-absorber-removed", []logic.Term{bind, q, imp(bind, p), logic.Or(q, r), jlt}, []logic.Term{bind, imp(bind, p), logic.Or(q, r), jlt}},
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
