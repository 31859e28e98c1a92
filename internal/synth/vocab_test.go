package synth_test

import (
	"fmt"
	"testing"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestDerivedVocabMatchesBuilt is the differential check of the
// vocabulary derivation: for every router of every deployment, an
// encoder with the deployment's base attached and that router
// symbolized (the explanation case) must derive exactly the sorts
// buildVocab builds from the whole sketch — same names, same values in
// the same order.
func TestDerivedVocabMatchesBuilt(t *testing.T) {
	for _, sc := range scenarios.All() {
		opts := synth.DefaultOptions()
		dep := synthesize(t, sc.Name, sc.Net, sc.Sketch, sc.Requirements(), opts)
		checkEveryRouter(t, sc.Name, sc.Net, dep, recordBase(t, sc.Net, dep, opts, nil))
	}

	opts := synth.DefaultOptions()
	opts.MaxPathLen = 7
	opts.MaxCandidatesPerNode = 8
	for _, mk := range []func() (*netgen.Workload, error){
		func() (*netgen.Workload, error) { return netgen.Grid(4, 4, false) },
		func() (*netgen.Workload, error) { return netgen.FatTree(4, false) },
		func() (*netgen.Workload, error) { return netgen.Random(24, 3.0, 42, false) },
	} {
		wl, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		wl = netgen.Populate(wl)
		dep := synthesize(t, wl.Name, wl.Net, wl.Sketch, wl.Requirements(), opts)
		checkEveryRouter(t, wl.Name, wl.Net, dep, recordBase(t, wl.Net, dep, opts, nil))
	}
}

// TestDerivedVocabWhatIfChain runs the differential check along a
// what-if chain of deployments: edits that leave the tag sets alone,
// one that adds tags, and one that removes them again. Each
// generation's sketches derive their vocabulary both from the
// predecessor's base, where the edited routers are dirty beside the
// symbolized one, and from the generation's own base.
func TestDerivedVocabWhatIfChain(t *testing.T) {
	sc := scenarios.Scenario3()
	opts := synth.DefaultOptions()
	dep := synthesize(t, sc.Name, sc.Net, sc.Sketch, sc.Requirements(), opts)
	base := recordBase(t, sc.Net, dep, opts, nil)

	withProbe := func(d config.Deployment) config.Deployment {
		out := config.Deployment{}
		for n, c := range d {
			out[n] = c
		}
		out["R2"] = withProbeMap(d["R2"], "201:9", "192.0.2.9")
		return out
	}
	gens := []config.Deployment{}
	cur := dep
	for gen := int64(1); gen <= 4; gen++ {
		switch gen {
		case 2:
			cur = withProbe(cur)
		case 4:
			cur = withProbeRemoved(cur, "R2")
		default:
			cur, _ = netgen.Perturb(cur, gen, 2)
		}
		gens = append(gens, cur)
	}
	for i, d := range gens {
		name := fmt.Sprintf("%s gen %d", sc.Name, i+1)
		checkEveryRouter(t, name+" on its predecessor's base", sc.Net, d, base)
		base = recordBase(t, sc.Net, d, opts, nil)
		checkEveryRouter(t, name, sc.Net, d, base)
	}
}

// TestDerivedVocabShrinks covers the case that makes the derivation
// more than a cache lookup: the symbolized router is the only one that
// mentions some community tag and some next-hop IP, so symbolizing it
// removes both from the vocabulary.
func TestDerivedVocabShrinks(t *testing.T) {
	sc := scenarios.Scenario1()
	opts := synth.DefaultOptions()
	synthesized := synthesize(t, sc.Name, sc.Net, sc.Sketch, sc.Requirements(), opts)
	dep := config.Deployment{}
	for n, c := range synthesized {
		dep[n] = c
	}
	dep["R1"] = withProbeMap(dep["R1"], "777:7", "192.0.2.7")
	base := recordBase(t, sc.Net, dep, opts, nil)
	checkEveryRouter(t, "probe", sc.Net, dep, base)

	full := synth.DerivedVocabSorts(base, nil)
	sym, _, err := core.Symbolize(dep["R1"], core.AllTargets(dep["R1"]))
	if err != nil {
		t.Fatal(err)
	}
	shrunk := synth.DerivedVocabSorts(base, map[string]*config.Config{"R1": sym})
	for i, name := range []string{"Community", "NextHopIP"} {
		if len(shrunk[i].Values) >= len(full[i].Values) {
			t.Errorf("%s sort did not shrink: %v -> %v", name, full[i].Values, shrunk[i].Values)
		}
	}
}

// checkEveryRouter compares, for the unsymbolized deployment and for
// each router symbolized in full, the vocabulary derived from the base
// with the one built from the whole sketch. The base may be a
// predecessor's: the routers dep changed are overridden too.
func checkEveryRouter(t *testing.T, name string, net *topology.Network, dep config.Deployment, base *synth.Base) {
	t.Helper()
	check := func(label string, over map[string]*config.Config) {
		over = withEdits(synth.BaseDeployment(base), dep, over)
		got := synth.DerivedVocabSorts(base, over)
		want := synth.BuildVocabSorts(net, applied(synth.BaseDeployment(base), over))
		for i := range want {
			if !sameSortExactly(got[i], want[i]) {
				t.Errorf("%s %s: derived sort %v, built %v", name, label, got[i], want[i])
			}
		}
	}
	for label, over := range fullSymbolizations(t, dep) {
		check(label, over)
	}
}

// sameSortExactly compares enum sorts by name and value order.
func sameSortExactly(a, b *logic.Sort) bool {
	if a.Name != b.Name || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func synthesize(t *testing.T, name string, net *topology.Network, sketch config.Deployment, reqs []spec.Requirement, opts synth.Options) config.Deployment {
	t.Helper()
	res, err := synth.Synthesize(net, sketch, reqs, opts)
	if err != nil {
		t.Fatalf("synthesize %s: %v", name, err)
	}
	return res.Deployment
}

// withProbeMap returns a clone of c with an extra (unreferenced)
// route-map whose one clause matches the community tag, tags the route
// with it and rewrites the next hop to the IP.
func withProbeMap(c *config.Config, tag, ip string) *config.Config {
	out := c.Clone()
	comm := bgp.MustCommunity(tag)
	out.AddRouteMap(&config.RouteMap{
		Name: "vocab_probe",
		Clauses: []*config.Clause{{
			Seq:     10,
			Action:  config.Permit,
			Matches: []*config.Match{{Kind: config.MatchCommunity, Community: comm}},
			Sets: []*config.Set{
				{Kind: config.SetCommunity, Community: comm},
				{Kind: config.SetNextHopIP, NextHopIP: ip},
			},
		}},
	})
	return out
}

// withProbeRemoved returns the deployment with the probe map dropped
// from the router's config.
func withProbeRemoved(d config.Deployment, router string) config.Deployment {
	out := config.Deployment{}
	for n, c := range d {
		out[n] = c
	}
	c := d[router].Clone()
	delete(c.RouteMaps, "vocab_probe")
	out[router] = c
	return out
}
