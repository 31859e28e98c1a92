package core

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
)

// coldReport builds a fresh explainer over dep and renders its report —
// the ground truth every incremental path must reproduce byte for byte.
func coldReport(t *testing.T, sc *scenarios.Scenario, dep config.Deployment, reqs []spec.Requirement, opts Options) (string, error) {
	t.Helper()
	if reqs == nil {
		reqs = sc.Requirements()
	}
	e, err := NewExplainer(sc.Net, reqs, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e.Report()
}

// TestReExplainByteIdentity is the tentpole's differential pin: for
// every seed scenario and a battery of deterministic random edits, the
// incremental re-explanation must produce byte-for-byte the report a
// cold explainer produces on the edited network — with proof
// verification on, so spliced verdicts stand on checked proofs.
func TestReExplainByteIdentity(t *testing.T) {
	opts := DefaultOptions()
	opts.VerifyProofs = true
	for _, sc := range scenarios.All() {
		dep := synthScenario(t, sc)
		for seed := int64(1); seed <= 3; seed++ {
			edited, edits := netgen.Perturb(dep, seed, 2)
			if len(edits) == 0 {
				t.Fatalf("%s seed %d: no edit sites", sc.Name, seed)
			}
			e, err := NewExplainer(sc.Net, sc.Requirements(), dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Report(); err != nil {
				t.Fatalf("%s: cold report: %v", sc.Name, err)
			}
			dr, incErr := e.ReExplain(Delta{Deployment: edited})
			want, coldErr := coldReport(t, sc, edited, nil, opts)
			if coldErr != nil {
				if incErr == nil {
					t.Fatalf("%s seed %d: cold explain fails (%v) but ReExplain succeeded", sc.Name, seed, coldErr)
				}
				continue
			}
			if incErr != nil {
				t.Fatalf("%s seed %d: ReExplain: %v (edits: %v)", sc.Name, seed, incErr, edits)
			}
			if dr.Report != want {
				t.Fatalf("%s seed %d: incremental report diverges from cold report (edits: %v)\n-- incremental --\n%s\n-- cold --\n%s",
					sc.Name, seed, edits, dr.Report, want)
			}
			if dr.Stats.Spliced+dr.Stats.Recomputed != dr.Stats.Routers && !dr.Stats.FastPath {
				t.Fatalf("%s seed %d: spliced %d + recomputed %d != routers %d",
					sc.Name, seed, dr.Stats.Spliced, dr.Stats.Recomputed, dr.Stats.Routers)
			}
			if !strings.Contains(dr.Summary, "WHAT-IF DELTA SUMMARY") {
				t.Fatalf("%s seed %d: malformed summary:\n%s", sc.Name, seed, dr.Summary)
			}
		}
	}
}

// TestReExplainWorkerMatrix pins byte-identity across the router
// pool's width (GOMAXPROCS): it must never change a single byte of the
// incremental report.
func TestReExplainWorkerMatrix(t *testing.T) {
	sc := scenarios.Scenario2()
	dep := synthScenario(t, sc)
	edited, _ := netgen.Perturb(dep, 5, 1)
	want, coldErr := coldReport(t, sc, edited, nil, DefaultOptions())
	if coldErr != nil {
		t.Fatalf("cold report on edited network: %v", coldErr)
	}
	for _, procs := range []int{1, 2, 8} {
		setGOMAXPROCS(t, procs)
		e := newExplainer(t, sc, dep, nil)
		if _, err := e.Report(); err != nil {
			t.Fatal(err)
		}
		dr, err := e.ReExplain(Delta{Deployment: edited})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if dr.Report != want {
			t.Fatalf("GOMAXPROCS=%d: incremental report diverges from cold report", procs)
		}
	}
}

// TestReExplainModelInvisibleEditFastPath: changing the VALUE of a MED
// metric (outside the modeled selection semantics; the set line itself
// stays, so the symbolization surface is unchanged) must take the fast
// path — previous report reused verbatim — and that report must still
// be byte-identical to a cold report over the edited network.
func TestReExplainModelInvisibleEditFastPath(t *testing.T) {
	sc := scenarios.Scenario2()
	synthDep := synthScenario(t, sc)

	// Baseline network: R2 carries a concrete MED metric.
	withMED := func(base config.Deployment, med int) (config.Deployment, *config.Set) {
		out := config.Deployment{}
		for name, c := range base {
			out[name] = c
		}
		c := base["R2"].Clone()
		out["R2"] = c
		cl := c.RouteMaps[c.RouteMapNames()[0]].Clauses[0]
		s := &config.Set{Kind: config.SetMED, MED: med}
		cl.Sets = append(cl.Sets, s)
		return out, s
	}
	dep, _ := withMED(synthDep, 50)
	// Edited network: same line, different metric.
	edited, _ := withMED(synthDep, 70)

	e := newExplainer(t, sc, dep, nil)
	prior, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	dr, err := e.ReExplain(Delta{Deployment: edited})
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Stats.FastPath {
		t.Fatalf("MED-only edit did not take the fast path: %+v\n%s", dr.Stats, dr.Summary)
	}
	if dr.Report != prior {
		t.Fatal("fast path did not reuse the previous report verbatim")
	}
	if len(dr.Stats.EditedConfigs) != 1 || dr.Stats.EditedConfigs[0] != "R2" {
		t.Fatalf("EditedConfigs = %v, want [R2]", dr.Stats.EditedConfigs)
	}
	want, coldErr := coldReport(t, sc, edited, nil, DefaultOptions())
	if coldErr != nil {
		t.Fatal(coldErr)
	}
	if dr.Report != want {
		t.Fatal("fast-path report diverges from a cold report over the edited network")
	}
	// The explainer now targets the edited network, through a successor
	// session the all-hit sweep left without a base or an encode.
	if e.Deployment["R2"] != edited["R2"] {
		t.Fatal("ReExplain did not adopt the edited deployment")
	}
	if st := e.Stats(); st.BaseEncodes != 0 || st.Encodes != 0 {
		t.Fatalf("all-hit sweep: BaseEncodes %d, Encodes %d; want 0, 0", st.BaseEncodes, st.Encodes)
	}
}

// TestReExplainBrokenEditFails: an edit the encoder rejects (R1's
// match names a prefix-list R1 does not define) fails ReExplain as it
// fails a cold report, although R1's own section key, taken over its
// symbolized config, does not see the name. With three configured
// routers R2's and R3's keys see it, so their sections miss and build
// the base; with R1 alone no section misses, and the base is built
// after the sweep. Reports are unlifted: R1 alone does not meet the
// intent, so its lift has no seed model.
func TestReExplainBrokenEditFails(t *testing.T) {
	sc := scenarios.Scenario1()
	dep := synthScenario(t, sc)
	opts := DefaultOptions()
	opts.Lift = false
	for _, tc := range []struct {
		name string
		dep  config.Deployment
	}{
		{"three routers", dep},
		{"R1 alone", config.Deployment{"R1": dep["R1"]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broken := config.Deployment{}
			for name, c := range tc.dep {
				broken[name] = c
			}
			broken["R1"] = withUnknownPrefixList(t, tc.dep["R1"])
			if _, err := coldReport(t, sc, broken, nil, opts); err == nil {
				t.Fatal("a cold report of the broken edit succeeds; the test shows nothing")
			}
			e, err := NewExplainer(sc.Net, sc.Requirements(), tc.dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Report(); err != nil {
				t.Fatal(err)
			}
			_, err = e.ReExplain(Delta{Deployment: broken})
			if err == nil || !strings.Contains(err.Error(), "unknown prefix-list") {
				t.Fatalf("ReExplain of the broken edit: err = %v, want the encoder's unknown prefix-list", err)
			}
		})
	}
}

// withUnknownPrefixList returns a copy of c whose first prefix-list
// match names a list c does not define.
func withUnknownPrefixList(t *testing.T, c *config.Config) *config.Config {
	t.Helper()
	out := c.Clone()
	for _, name := range out.RouteMapNames() {
		for _, cl := range out.RouteMaps[name].Clauses {
			for _, m := range cl.Matches {
				if m.Kind == config.MatchPrefixList {
					m.PrefixList = "no_such_list"
					return out
				}
			}
		}
	}
	t.Fatalf("%s has no prefix-list match", c.Router)
	return nil
}

// TestReExplainAfterLiftOptionChange: a re-explanation renders under
// the explainer's current lift options, whatever the previous report
// was rendered under. The lifted report of a network with a MED line
// is followed, with lifting off, by a retune of that line: every
// section's encoding is unchanged, yet the report must equal a cold
// unlifted one.
func TestReExplainAfterLiftOptionChange(t *testing.T) {
	sc := scenarios.Scenario2()
	synthDep := synthScenario(t, sc)
	withMED := func(med int) config.Deployment {
		out := config.Deployment{}
		for name, c := range synthDep {
			out[name] = c
		}
		c := synthDep["R2"].Clone()
		cl := c.RouteMaps[c.RouteMapNames()[0]].Clauses[0]
		cl.Sets = append(cl.Sets, &config.Set{Kind: config.SetMED, MED: med})
		out["R2"] = c
		return out
	}
	e := newExplainer(t, sc, withMED(50), nil)
	lifted, err := e.Report()
	if err != nil {
		t.Fatal(err)
	}
	e.Opts.Lift = false
	edited := withMED(70)
	dr, err := e.ReExplain(Delta{Deployment: edited})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Lift = false
	want, err := coldReport(t, sc, edited, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want == lifted {
		t.Fatal("the unlifted report equals the lifted one; the test shows nothing")
	}
	if dr.Report != want {
		t.Fatalf("ReExplain after turning lifting off diverges from a cold unlifted report\n-- incremental --\n%s\n-- cold --\n%s", dr.Report, want)
	}
}

// TestReExplainChainedEdits drives several generations of edits through
// one explainer — the interactive what-if session the feature exists
// for — checking byte-identity at every step.
func TestReExplainChainedEdits(t *testing.T) {
	sc := scenarios.Scenario3()
	dep := synthScenario(t, sc)
	e := newExplainer(t, sc, dep, nil)
	if _, err := e.Report(); err != nil {
		t.Fatal(err)
	}
	cur := dep
	for gen := int64(10); gen < 13; gen++ {
		edited, edits := netgen.Perturb(cur, gen, 1)
		dr, incErr := e.ReExplain(Delta{Deployment: edited})
		want, coldErr := coldReport(t, sc, edited, nil, DefaultOptions())
		if coldErr != nil {
			if incErr == nil {
				t.Fatalf("gen %d: cold fails (%v) but incremental succeeded", gen, coldErr)
			}
			return
		}
		if incErr != nil {
			t.Fatalf("gen %d: ReExplain: %v (edits: %v)", gen, incErr, edits)
		}
		if dr.Report != want {
			t.Fatalf("gen %d: incremental report diverges from cold (edits: %v)", gen, edits)
		}
		cur = edited
	}
}
