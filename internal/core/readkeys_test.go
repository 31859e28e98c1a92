package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/netgen"
	"repro/internal/scenarios"
	"repro/internal/synth"
)

// keyedDeployment is one deployment of TestReadKeysDifferential, with
// the single edit that made it from its group's first deployment (nil
// for that one).
type keyedDeployment struct {
	name string
	dep  config.Deployment
	edit *netgen.Edit
}

// keyedGroup is a network and deployments of it whose section keys the
// differential compares pairwise.
type keyedGroup struct {
	w    differentialWorkload
	deps []keyedDeployment
	// retags pairs each deployment with one next-hop line rewritten
	// (second) with the deployment it rewrote (first), by index.
	retags [][2]int
}

// keyedSection is one router's locality key with the derived encoding
// it stands for.
type keyedSection struct {
	key         string
	enc         *synth.Encoding
	paths       []synth.PathInfo
	nextHopHole bool // the override has a next-hop set line with a hole
}

// TestReadKeysDifferential checks the locality key against the encodes
// it stands for. Over deployments of one network — each scenario with
// its single-edit netgen.Perturb variants (seeds 1–5, plus the first
// seed giving each edit kind), next-hop and community set lines of the
// scenario and of each variant rewritten to a tag new to the
// vocabulary (the first line, then every line), and whatif-edits'
// 60-router fabric with a MED line added, retuned and undone — two
// sections of a router with equal keys must rest on the same derived
// encoding: element-wise pointer-identical constraint lists, the same
// hole variables and the same candidate paths through the router. An
// action flip or a local-preference move at X must change every other
// router's key and leave X's own. A one-line next-hop rewrite must
// leave the key of every router without a next-hop hole alone. Both
// equal and unequal pairs must occur.
func TestReadKeysDifferential(t *testing.T) {
	var groups []keyedGroup
	for _, sc := range scenarios.All() {
		dep := synthScenario(t, sc)
		g := keyedGroup{w: differentialWorkload{sc.Name, sc.Net, sc.Requirements(), dep, synth.DefaultOptions()}}
		g.deps = append(g.deps, keyedDeployment{"base", dep, nil})
		kinds := map[string]bool{}
		for seed := int64(0); seed < 64; seed++ {
			edited, edits := netgen.Perturb(dep, seed, 1)
			if len(edits) != 1 || (seed < 1 || seed > 5) && kinds[edits[0].Kind] {
				continue
			}
			kinds[edits[0].Kind] = true
			g.deps = append(g.deps, keyedDeployment{fmt.Sprintf("perturb%d", seed), edited, &edits[0]})
		}
		for i, d := range slices.Clone(g.deps) {
			for _, kind := range []config.SetKind{config.SetNextHopIP, config.SetCommunity} {
				if one := withNewTag(d.dep, kind, 1); one != nil {
					if kind == config.SetNextHopIP {
						g.retags = append(g.retags, [2]int{i, len(g.deps)})
					}
					g.deps = append(g.deps, keyedDeployment{fmt.Sprintf("%s, new %v", d.name, kind), one, nil},
						keyedDeployment{fmt.Sprintf("%s, all new %v", d.name, kind), withNewTag(d.dep, kind, -1), nil})
				}
			}
		}
		groups = append(groups, g)
	}
	w := whatifFabric(t)
	g := keyedGroup{w: w, deps: []keyedDeployment{{"base", w.dep, nil}}}
	for seed := int64(1); len(g.deps) == 1; seed++ {
		added, edits := netgen.Perturb(w.dep, seed, 1)
		if len(edits) != 1 || edits[0].Kind != "med-change" || !strings.Contains(edits[0].Detail, ": med 0 -> ") {
			continue
		}
		site, _, _ := strings.Cut(edits[0].Detail, ":")
		for re := int64(1); len(g.deps) == 1; re++ {
			retuned, redits := netgen.Perturb(added, re, 1)
			if len(redits) == 1 && redits[0].Router == edits[0].Router && strings.HasPrefix(redits[0].Detail, site+":") {
				undone := config.Deployment{}
				for name, c := range w.dep {
					undone[name] = c
				}
				g.deps = append(g.deps, keyedDeployment{"add", added, &edits[0]},
					keyedDeployment{"retune", retuned, nil}, keyedDeployment{"undo", undone, nil})
			}
		}
	}
	groups = append(groups, g)

	equal, unequal, narrowed := 0, 0, 0
	for _, g := range groups {
		sections := make([]map[string]keyedSection, len(g.deps))
		for i, d := range g.deps {
			sections[i] = keyedSections(t, g.w, d.dep)
		}
		for router := range g.w.dep {
			for i := range g.deps {
				for j := i + 1; j < len(g.deps); j++ {
					a, b := sections[i][router], sections[j][router]
					if a.key != b.key {
						unequal++
						continue
					}
					equal++
					if msg := sameSection(a, b); msg != "" {
						t.Errorf("%s %s: %s and %s share a key, but %s", g.w.name, router, g.deps[i].name, g.deps[j].name, msg)
					}
				}
			}
		}
		for _, rt := range g.retags {
			for router := range g.w.dep {
				a, b := sections[rt[0]][router], sections[rt[1]][router]
				if a.nextHopHole || b.nextHopHole {
					continue
				}
				if a.key != b.key {
					t.Errorf("%s %s: %s changed the key of a router with no next-hop hole", g.w.name, router, g.deps[rt[1]].name)
				}
				narrowed++
			}
		}
		for i, d := range g.deps {
			if d.edit == nil || d.edit.Kind != "action-flip" && d.edit.Kind != "pref-change" {
				continue
			}
			for router := range g.w.dep {
				same := sections[0][router].key == sections[i][router].key
				if router == d.edit.Router && !same {
					t.Errorf("%s %s: %s changed the edited router's own key", g.w.name, d.name, d.edit.Kind)
				}
				if router != d.edit.Router && same {
					t.Errorf("%s %s: %s at %s left %s's key alone", g.w.name, d.name, d.edit.Kind, d.edit.Router, router)
				}
			}
		}
	}
	if equal == 0 || unequal == 0 {
		t.Fatalf("%d equal and %d unequal key pairs; the differential needs both", equal, unequal)
	}
	if narrowed == 0 {
		t.Fatal("no next-hop rewrite met a router without a next-hop hole")
	}
	t.Logf("%d equal and %d unequal key pairs; %d keys a one-line next-hop rewrite left alone", equal, unequal, narrowed)
}

// withNewTag returns a copy of dep whose first n concrete set lines of
// the kind (SetNextHopIP or SetCommunity; every such line when n < 0),
// in router and route-map order, set a tag no other config mentions,
// so it enters the vocabulary of every encoding that keeps one of them
// concrete; nil when dep has no such line. With one line rewritten, the
// vocabulary of the edited router's own encoding stays as it was; with
// two, it grows too, though no config digest tells the two apart.
func withNewTag(dep config.Deployment, kind config.SetKind, n int) config.Deployment {
	out := config.Deployment{}
	names := make([]string, 0, len(dep))
	for name, c := range dep {
		out[name] = c
		names = append(names, name)
	}
	slices.Sort(names)
	done := 0
	for _, name := range names {
		c := dep[name].Clone()
		for _, rm := range c.RouteMapNames() {
			for _, cl := range c.RouteMaps[rm].Clauses {
				for _, s := range cl.Sets {
					if s.Kind == kind && s.ParamHole == "" && done != n {
						if kind == config.SetNextHopIP {
							s.NextHopIP = "10.0.0.99"
						} else {
							s.Community = bgp.MustCommunity("100:99")
						}
						out[name] = c
						done++
					}
				}
			}
		}
	}
	if done == 0 {
		return nil
	}
	return out
}

// keyedSections takes every router's locality key as a report does and
// encodes its section's seed.
func keyedSections(t *testing.T, w differentialWorkload, dep config.Deployment) map[string]keyedSection {
	t.Helper()
	opts := DefaultOptions()
	opts.Synth = w.synth
	e, err := NewExplainer(w.net, w.reqs, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := e.readKeys()
	out := map[string]keyedSection{}
	for _, router := range e.reportRouters() {
		targets := AllTargets(dep[router])
		sym, _, err := e.symbolize(router, targets)
		if err != nil {
			t.Fatal(err)
		}
		override := sym
		if override == nil {
			override = dep[router]
		}
		enc, err := e.encode(context.Background(), router, targets, sym)
		if err != nil {
			t.Fatal(err)
		}
		hole := false
		for _, rm := range override.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, s := range cl.Sets {
					hole = hole || s.Kind == config.SetNextHopIP && s.ParamHole != ""
				}
			}
		}
		out[router] = keyedSection{keys.Key(router, override), enc, enc.PathInfosThrough(router), hole}
	}
	return out
}

// sameSection describes how two encodings behind one key differ, or
// returns "" when they are the same.
func sameSection(a, b keyedSection) string {
	if !slices.Equal(a.enc.Constraints, b.enc.Constraints) {
		return "the constraint lists differ"
	}
	if len(a.enc.HoleVars) != len(b.enc.HoleVars) {
		return "the hole variables differ"
	}
	for name, v := range a.enc.HoleVars {
		if b.enc.HoleVars[name] != v {
			return "hole variable " + name + " differs"
		}
	}
	if len(a.paths) != len(b.paths) {
		return "the paths through the router differ"
	}
	for i := range a.paths {
		p, q := &a.paths[i], &b.paths[i]
		if p.Prefix != q.Prefix || p.Sel != q.Sel || p.LP != q.LP ||
			!slices.Equal(p.Path, q.Path) || !slices.Equal(p.EdgeConds, q.EdgeConds) {
			return fmt.Sprintf("path %d through the router differs", i)
		}
	}
	return ""
}
