package core

import (
	"testing"

	"repro/internal/scenarios"
)

func TestExplainerHandlesRequirementSubsets(t *testing.T) {
	// Explaining against each single requirement never errors and
	// residual sizes are monotone-ish: the full spec constrains at
	// least as much as any subset at the same router.
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	full := newExplainer(t, sc, dep, nil)
	opts := DefaultOptions()
	opts.Lift = false
	fullNoLift, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	exFull, err := fullNoLift.ExplainAll("R1")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range sc.Spec.Blocks {
		sub, err := NewExplainer(sc.Net, b.Reqs, dep, opts)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := sub.ExplainAll("R1")
		if err != nil {
			t.Fatalf("block %s: %v", b.Name, err)
		}
		if ex.SeedSize == 0 {
			t.Fatalf("block %s: empty seed", b.Name)
		}
	}
	_ = full
	if exFull.ResidualSize == 0 {
		t.Fatal("full spec should constrain R1")
	}
}
