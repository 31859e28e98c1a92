package netgen

import (
	"os"
	"testing"

	"repro/internal/config"
	"repro/internal/synth"
	"repro/internal/topology"
	"repro/internal/verify"
)

func TestNoTransitOnPaperTopology(t *testing.T) {
	wl, err := NoTransit("paper", topology.Paper())
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Sketch) != 2 { // R1 and R2 are provider-adjacent
		t.Fatalf("sketch covers %d routers, want 2", len(wl.Sketch))
	}
	res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := verify.Satisfies(wl.Net, res.Deployment, wl.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("synthesized no-transit workload violates its spec")
	}
}

func TestGridWorkloadSynthesizes(t *testing.T) {
	wl, err := Grid(3, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := synth.DefaultOptions()
	opts.MaxPathLen = 7
	opts.MaxCandidatesPerNode = 8
	res, err := synth.Synthesize(wl.Net, wl.Sketch, wl.Requirements(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := verify.Satisfies(wl.Net, res.Deployment, wl.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("grid workload violates its spec after synthesis")
	}
}

func TestRandomWorkloadDeterministic(t *testing.T) {
	a, err := Random(8, 2.5, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(8, 2.5, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sketch) != len(b.Sketch) {
		t.Fatal("same seed should give same sketch shape")
	}
	for r := range a.Sketch {
		if _, ok := b.Sketch[r]; !ok {
			t.Fatalf("sketch router sets differ at %s", r)
		}
	}
}

func TestWithPreferenceAddsTemplates(t *testing.T) {
	wl, err := Grid(3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Spec.Blocks) != 2 {
		t.Fatalf("spec blocks = %d, want 2", len(wl.Spec.Blocks))
	}
	// Customer-adjacent router (R0_0) must carry selector maps.
	c, ok := wl.Sketch["R0_0"]
	if !ok {
		t.Fatal("customer-adjacent router not sketched")
	}
	if len(c.RouteMapNames()) == 0 {
		t.Fatal("no selector maps at the customer-adjacent router")
	}
	// Provider-adjacent routers carry both export and tagger maps.
	p1r := wl.Sketch["R2_1"]
	if p1r == nil || len(p1r.RouteMapNames()) < 2 {
		t.Fatalf("provider-adjacent router lacks templates: %v", p1r.RouteMapNames())
	}
}

// TestWithPreferenceSketchGolden pins every line of a preference
// workload's sketch: the tagger and selector templates WithPreference
// adds beside NoTransit's export templates.
func TestWithPreferenceSketchGolden(t *testing.T) {
	wl, err := Grid(3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/grid_3x2_pref.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := config.PrintDeployment(wl.Sketch); got != string(want) {
		t.Fatalf("Grid(3, 2, true) sketch differs from testdata/grid_3x2_pref.golden:\n%s", got)
	}
}

func TestFatTreeWorkload(t *testing.T) {
	wl, err := FatTree(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(wl.Sketch) == 0 {
		t.Fatal("empty sketch")
	}
}

func TestMissingExternals(t *testing.T) {
	bare := topology.New()
	bare.AddRouter("R0", 100)
	if _, err := NoTransit("bare", bare); err == nil {
		t.Fatal("topology without providers should fail")
	}
}

// TestPopulate pins the scale-workload contract: after Populate every
// internal router has a config, sketch routers are untouched, and the
// added maps are the neutral permit-all shape (one concrete permit
// clause per internal-neighbor import, no holes).
func TestPopulate(t *testing.T) {
	wl, err := Grid(4, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	sketched := make(map[string]int)
	for name, c := range wl.Sketch {
		sketched[name] = len(c.RouteMapNames())
	}
	Populate(wl)
	for _, r := range wl.Net.Internals() {
		c, ok := wl.Sketch[r.Name]
		if !ok {
			t.Fatalf("router %s still unconfigured after Populate", r.Name)
		}
		if n, was := sketched[r.Name]; was {
			if got := len(c.RouteMapNames()); got != n {
				t.Errorf("sketch router %s changed: %d maps, had %d", r.Name, got, n)
			}
			continue
		}
		if !c.Concrete() {
			t.Errorf("populated router %s has holes", r.Name)
		}
		if len(c.Neighbors) == 0 {
			t.Errorf("populated router %s has no neighbor bindings", r.Name)
		}
		for _, rm := range c.RouteMaps {
			if len(rm.Clauses) != 1 || rm.Clauses[0].Action != config.Permit ||
				len(rm.Clauses[0].Matches) != 0 || len(rm.Clauses[0].Sets) != 0 {
				t.Errorf("router %s map %s is not a bare permit-all", r.Name, rm.Name)
			}
		}
	}
}
