package core

import (
	"context"
	"testing"

	"repro/internal/logic"
)

// TestReportReplaysRootConjunctions runs a cold unlifted report of
// whatif-edits' 60-router fabric and of fabric-stream's 300-router
// fabric and requires each session to have replayed the base seed's
// recorded root once for every distinct router seed other than the base
// seed (each is normalized once), with no root falling back to the full
// path. That the replay normalizes only a seed's fresh raw conjuncts is
// pinned on the same seeds by rewrite's TestReplayMatchesFullLoop.
func TestReportReplaysRootConjunctions(t *testing.T) {
	for _, fabric := range []struct {
		n, hops int
		graph   int64
		dirty   int // fewest router seeds that must differ from the base seed
	}{{60, 7, 8, 50}, {300, 6, 7, 80}} {
		w := randomFabric(t, fabric.n, fabric.graph, fabric.hops)
		t.Run(w.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Synth = w.synth
			opts.Lift = false
			e, err := NewExplainer(w.net, w.reqs, w.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Report(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			base, err := e.Session.PrepareScoped(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			baseSeed := base.Seed()
			seeds := map[logic.Term]bool{}
			for _, r := range e.reportRouters() {
				ex, err := e.ExplainAll(r)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Seed != baseSeed {
					seeds[ex.Seed] = true
				}
			}
			if st.SimplifyReplays != len(seeds) || st.SimplifyReplayFallbacks != 0 {
				t.Fatalf("%d replays and %d fallbacks, want %d replays and none", st.SimplifyReplays, st.SimplifyReplayFallbacks, len(seeds))
			}
			if len(seeds) < fabric.dirty {
				t.Fatalf("only %d router seeds differ from the base seed", len(seeds))
			}
		})
	}
}
