package synth_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/synth"
	"repro/internal/topology"
)

// TestScopedEncodeIdentical is the encode-level differential and the
// reference for every derived encode: the encoding a base derives from
// a query's overrides (Base.Encode) must equal the plain whole-network
// encode of a copy of the base's deployment with the overrides applied
// (NewEncoder(...).EncodeContext), the construction a derived encode
// replaced — constraints pointer-identical element by element (terms
// are hash-consed, so pointer equality is structural equality), the
// same hole variables, the same path infos (whole-network and through
// each symbolized router, the latter the order-preserving filter of the
// former) and the same size stats, on every derived encode of
// forEachScopedWorkload's workloads.
func TestScopedEncodeIdentical(t *testing.T) {
	forEachScopedWorkload(t, func(t *testing.T, w scopedWorkload) {
		for _, c := range w.cases {
			checkSpliceMatchesPlain(t, c.label, w.net, c.base, c.over, w.reqs, w.opts)
		}
	})
}

// TestDerivedEncodingHoldsOneCopy pins what a derived encoding keeps,
// over TestScopedEncodeIdentical's workloads: its constraint list is
// the argument slice of its interned seed term, one backing array (the
// base's list is its seed's too); an encode that re-encodes nothing
// returns the base's seed term and list; and no derived encode writes
// to the base's candidate maps, which it overlays, or to the base's
// constraint list, which it shares.
func TestDerivedEncodingHoldsOneCopy(t *testing.T) {
	forEachScopedWorkload(t, func(t *testing.T, w scopedWorkload) {
		type snapshot struct {
			cands       map[[2]string][]any
			constraints []logic.Term
		}
		before := map[*synth.Base]snapshot{}
		for _, c := range w.cases {
			if _, ok := before[c.base]; ok {
				continue
			}
			list := synth.BaseConstraints(c.base)
			requireSeedArgs(t, "base", list, c.base.Seed())
			before[c.base] = snapshot{synth.CandidateSnapshot(c.base), slices.Clone(list)}
		}
		shared := 0
		for _, c := range w.cases {
			enc, err := c.base.Encode(context.Background(), c.over)
			if err != nil {
				t.Fatalf("%s: %v", c.label, err)
			}
			seed := enc.Conjunction()
			requireSeedArgs(t, c.label, enc.Constraints, seed)
			if enc.Stats.ScopedGroupsEncoded > 0 {
				continue
			}
			shared++
			if seed != c.base.Seed() || !sameArray(enc.Constraints, synth.BaseConstraints(c.base)) {
				t.Fatalf("%s: an encode that re-encodes nothing does not return the base's seed and list", c.label)
			}
		}
		if shared == 0 {
			t.Fatal("every encode re-encoded a group; the sharing check shows nothing")
		}
		for b, snap := range before {
			if !slices.Equal(synth.BaseConstraints(b), snap.constraints) {
				t.Fatal("a derived encode wrote to the base's constraint list")
			}
			now := synth.CandidateSnapshot(b)
			if len(now) != len(snap.cands) {
				t.Fatalf("the base's candidate groups went from %d to %d", len(snap.cands), len(now))
			}
			for g, cs := range snap.cands {
				if !slices.Equal(now[g], cs) {
					t.Fatalf("a derived encode changed the base's candidates of %s at %s", g[0], g[1])
				}
			}
		}
	})
}

// requireSeedArgs requires the constraint list to be the seed term's
// argument slice: one backing array.
func requireSeedArgs(t *testing.T, label string, list []logic.Term, seed logic.Term) {
	t.Helper()
	if a, ok := seed.(*logic.Apply); !ok || a.Op != logic.OpAnd || !sameArray(list, a.Args) {
		t.Fatalf("%s: the constraint list is not its seed term's argument slice", label)
	}
}

// sameArray reports whether two slices are the same slice of one
// backing array.
func sameArray(a, b []logic.Term) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// scopedCase is one derived encode of the scoped differential: the
// base it derives from and the overrides, under a label.
type scopedCase struct {
	label string
	base  *synth.Base
	over  map[string]*config.Config
}

// scopedWorkload is one deployment of the scoped differential with the
// derived encodes checked on it.
type scopedWorkload struct {
	net   *topology.Network
	reqs  []spec.Requirement
	opts  synth.Options
	cases []scopedCase
}

// forEachScopedWorkload runs f as a parallel subtest on each workload
// of the scoped differential. The inputs are every router of each
// deployment fully symbolized, the scenario routers symbolized back to
// their synthesis sketch, each scenario router's complement (every
// other configured router symbolized, N-1 overrides), and every router
// of two Perturb edits per scenario, derived both from the unedited
// deployment's base (the edited routers and the symbolized one
// overridden together) and from the edited deployment's own base (a
// what-if successor session), and every router of a deployment in
// which R1 alone mentions some tags (symbolizing it shrinks the
// vocabulary); on four generated fabrics, every router symbolized and
// every router's complement.
func forEachScopedWorkload(t *testing.T, f func(t *testing.T, w scopedWorkload)) {
	for _, sc := range scenarios.All() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			w := scopedWorkload{net: sc.Net, reqs: sc.Requirements(), opts: synth.DefaultOptions()}
			dep := synthesize(t, sc.Name, sc.Net, sc.Sketch, w.reqs, w.opts)
			base := recordBase(t, sc.Net, dep, w.opts, w.reqs)
			add := func(b *synth.Base, label string, over map[string]*config.Config) {
				w.cases = append(w.cases, scopedCase{label, b, over})
			}
			for label, over := range fullSymbolizations(t, dep) {
				add(base, label, over)
			}
			for _, router := range sortedRouters(dep) {
				if sym, ok := sc.Sketch[router]; ok && !sym.Concrete() {
					add(base, router+" back to its sketch", map[string]*config.Config{router: sym})
				}
				add(base, "complement of "+router, complementOverrides(t, dep, router))
			}
			for seed := int64(1); seed <= 2; seed++ {
				edited, _ := netgen.Perturb(dep, seed, 2)
				own := recordBase(t, sc.Net, edited, w.opts, w.reqs)
				for label, over := range fullSymbolizations(t, edited) {
					label = fmt.Sprintf("perturb %d, %s", seed, label)
					add(base, label+" (unedited base)", withEdits(dep, edited, over))
					add(own, label+" (own base)", over)
				}
			}
			probed := applied(dep, map[string]*config.Config{"R1": withProbeMap(dep["R1"], "777:7", "192.0.2.7")})
			probedBase := recordBase(t, sc.Net, probed, w.opts, w.reqs)
			for label, over := range fullSymbolizations(t, probed) {
				add(probedBase, "probed, "+label, over)
			}
			f(t, w)
		})
	}

	for _, tc := range []struct {
		name  string
		build func() (*netgen.Workload, error)
		mpl   int
	}{
		{"grid_3x3", func() (*netgen.Workload, error) { return netgen.Grid(3, 3, false) }, 7},
		{"fattree_4", func() (*netgen.Workload, error) { return netgen.FatTree(4, false) }, 4},
		{"rand_20", func() (*netgen.Workload, error) { return netgen.Random(20, 2.5, 42, false) }, 7},
		{"rand_24_s42", func() (*netgen.Workload, error) { return netgen.Random(24, 3.0, 42, false) }, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			wl, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			netgen.Populate(wl)
			w := scopedWorkload{net: wl.Net, reqs: wl.Requirements(), opts: synth.DefaultOptions()}
			w.opts.MaxPathLen = tc.mpl
			w.opts.MaxCandidatesPerNode = 8
			dep := synthesize(t, wl.Name, wl.Net, wl.Sketch, w.reqs, w.opts)
			base := recordBase(t, wl.Net, dep, w.opts, w.reqs)
			for label, over := range fullSymbolizations(t, dep) {
				w.cases = append(w.cases, scopedCase{label, base, over})
			}
			for _, router := range sortedRouters(dep) {
				w.cases = append(w.cases, scopedCase{"complement of " + router, base, complementOverrides(t, dep, router)})
			}
			f(t, w)
		})
	}
}

// checkSpliceMatchesPlain encodes the base's deployment with the
// overrides twice — derived from the base, and whole-network from
// scratch over a copy of the deployment with the overrides applied —
// and requires the two encodings to be indistinguishable.
func checkSpliceMatchesPlain(t *testing.T, label string, net *topology.Network, base *synth.Base, over map[string]*config.Config, reqs []spec.Requirement, opts synth.Options) {
	t.Helper()
	ctx := context.Background()
	sketch := applied(synth.BaseDeployment(base), over)
	want, err := synth.NewEncoder(net, sketch, opts).EncodeContext(ctx, reqs)
	if err != nil {
		t.Fatalf("%s: plain encode: %v", label, err)
	}
	got, err := base.Encode(ctx, over)
	if err != nil {
		t.Fatalf("%s: derived encode: %v", label, err)
	}
	if got.Stats.ScopedGroupsCopied+got.Stats.ScopedGroupsEncoded == 0 {
		t.Fatalf("%s: the encode did not splice from the base", label)
	}

	if len(got.Constraints) != len(want.Constraints) {
		t.Fatalf("%s: %d derived vs %d plain constraints", label, len(got.Constraints), len(want.Constraints))
	}
	for i := range want.Constraints {
		if got.Constraints[i] != want.Constraints[i] {
			t.Fatalf("%s: constraint %d differs:\nderived: %s\nplain:   %s", label, i, got.Constraints[i], want.Constraints[i])
		}
	}

	if len(got.HoleVars) != len(want.HoleVars) {
		t.Fatalf("%s: %d derived vs %d plain hole variables", label, len(got.HoleVars), len(want.HoleVars))
	}
	for name, v := range want.HoleVars {
		if got.HoleVars[name] != v {
			t.Fatalf("%s: hole variable %s differs", label, name)
		}
	}

	wp := want.PathInfos()
	samePathInfos(t, label+", derived vs plain", got.PathInfos(), wp)
	// Every symbolized router's local list, which its lift reads, is the
	// order-preserving filter of the whole list.
	for _, r := range sortedRouters(sketch) {
		if sketch[r].Concrete() {
			continue
		}
		var through []synth.PathInfo
		for _, p := range wp {
			if slices.Contains(p.Path, r) {
				through = append(through, p)
			}
		}
		local := want.PathInfosThrough(r)
		samePathInfos(t, label+", through "+r+" derived vs plain", got.PathInfosThrough(r), local)
		samePathInfos(t, label+", through "+r+" vs the filtered whole list", local, through)
	}

	gs, ws := got.Stats, want.Stats
	if gs.Constraints != ws.Constraints || gs.ConstraintSize != ws.ConstraintSize ||
		gs.HoleVars != ws.HoleVars || gs.SelVars != ws.SelVars ||
		gs.Candidates != ws.Candidates || gs.TruncatedPaths != ws.TruncatedPaths {
		t.Fatalf("%s: size stats differ:\nderived: %+v\nplain:   %+v", label, gs, ws)
	}
}

// samePathInfos requires two path-info lists to agree field by field,
// terms by pointer.
func samePathInfos(t *testing.T, label string, got, want []synth.PathInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vs %d path infos", label, len(got), len(want))
	}
	for i := range want {
		a, b := &got[i], &want[i]
		if a.Prefix != b.Prefix || !slices.Equal(a.Path, b.Path) || a.LP != b.LP || a.Sel != b.Sel ||
			!slices.Equal(a.EdgeConds, b.EdgeConds) {
			t.Fatalf("%s: path info %d differs: %v vs %v", label, i, a.Path, b.Path)
		}
	}
}

// fullSymbolizations returns the overrides of the explanation case:
// none, and for every router that router with its every field
// symbolized (core.AllTargets), keyed by a label.
func fullSymbolizations(t *testing.T, dep config.Deployment) map[string]map[string]*config.Config {
	t.Helper()
	out := map[string]map[string]*config.Config{"unsymbolized": nil}
	for router, c := range dep {
		sym, _, err := core.Symbolize(c, core.AllTargets(c))
		if err != nil {
			t.Fatal(err)
		}
		out[router+" symbolized"] = map[string]*config.Config{router: sym}
	}
	return out
}

// complementOverrides are the overrides core.ExplainComplement encodes
// for the router: every other configured router fully symbolized.
func complementOverrides(t *testing.T, dep config.Deployment, router string) map[string]*config.Config {
	t.Helper()
	over := map[string]*config.Config{}
	for name, c := range dep {
		if name == router {
			continue
		}
		if targets := core.AllTargets(c); len(targets) > 0 {
			sym, _, err := core.Symbolize(c, targets)
			if err != nil {
				t.Fatal(err)
			}
			over[name] = sym
		}
	}
	return over
}

// withEdits returns over plus, for every router the edit changed
// (edited's config differs from dep's), its edited config: the
// overrides that turn dep into edited with over applied.
func withEdits(dep, edited config.Deployment, over map[string]*config.Config) map[string]*config.Config {
	out := map[string]*config.Config{}
	for n, c := range edited {
		if dep[n] != c {
			out[n] = c
		}
	}
	for n, c := range over {
		out[n] = c
	}
	return out
}

// applied returns a copy of the deployment with the overrides applied.
func applied(dep config.Deployment, over map[string]*config.Config) config.Deployment {
	out := make(config.Deployment, len(dep))
	for n, c := range dep {
		out[n] = c
	}
	for n, c := range over {
		out[n] = c
	}
	return out
}

func sortedRouters(dep config.Deployment) []string {
	out := make([]string, 0, len(dep))
	for n := range dep {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func recordBase(t *testing.T, net *topology.Network, dep config.Deployment, opts synth.Options, reqs []spec.Requirement) *synth.Base {
	t.Helper()
	b, err := synth.NewBase(context.Background(), net, dep, opts, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScopedBaseRejectsHoles pins the concreteness requirement.
func TestScopedBaseRejectsHoles(t *testing.T) {
	sc := scenarios.Scenario1()
	if _, err := synth.NewBase(context.Background(), sc.Net, sc.Sketch, synth.DefaultOptions(), sc.Requirements()); err == nil {
		t.Fatal("a sketch with holes must be rejected")
	}
}
