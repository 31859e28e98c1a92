package core

import (
	"context"
	"testing"

	"repro/internal/logic"
)

// TestReportReplaysRootConjunctions runs a cold unlifted report of the
// 60-router fabric and requires its session to have replayed the base
// seed's recorded root propagation once for every distinct router seed
// other than the base seed (each is normalized once), with
// no root falling back to the full loop.
func TestReportReplaysRootConjunctions(t *testing.T) {
	w := whatifFabric(t)
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
	if len(seeds) < 50 {
		t.Fatalf("only %d router seeds differ from the base seed", len(seeds))
	}
}
