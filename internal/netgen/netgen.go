// Package netgen generates synthesis workloads — topology, intent
// specification, and configuration sketch triples — at parameterized
// sizes. The paper's evaluation stops at the Figure 1b topology and
// explicitly leaves scalability "untested"; this generator powers the
// scaling experiments that extend it (grid, fat-tree, and random
// topologies with the same intent families as the paper's scenarios).
package netgen

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/scenarios"
	"repro/internal/spec"
	"repro/internal/topology"
)

// Workload is one complete synthesis problem instance.
type Workload struct {
	Name   string
	Net    *topology.Network
	Spec   *spec.Spec
	Sketch config.Deployment
}

// Requirements flattens the spec.
func (w *Workload) Requirements() []spec.Requirement { return w.Spec.Requirements() }

// internalNeighbors returns the internal routers adjacent to node,
// sorted.
func internalNeighbors(net *topology.Network, node string) []string {
	var out []string
	for _, nb := range net.Neighbors(node) {
		if r := net.Router(nb); r != nil && r.Role == topology.Internal {
			out = append(out, nb)
		}
	}
	return out
}

// exportTemplate mirrors scenarios.exportSketch: a symbolic
// prefix-match clause plus a symbolic catch-all on the export to peer.
func exportTemplate(router, peer string) *config.RouteMap {
	base := fmt.Sprintf("%s_to_%s", router, peer)
	return &config.RouteMap{
		Name: base,
		Clauses: []*config.Clause{
			{
				Seq:        10,
				ActionHole: base + "_10_action",
				Matches: []*config.Match{
					{Kind: config.MatchPrefixList, ValueHole: base + "_10_match"},
				},
			},
			{Seq: 100, ActionHole: base + "_100_action"},
		},
	}
}

// NoTransit builds the paper's Req1 intent over any topology carrying
// the standard C/P1/P2/D1 externals, with export templates at every
// provider-adjacent internal router.
func NoTransit(name string, net *topology.Network) (*Workload, error) {
	s, err := spec.Parse(`
Req1 {
    !(P1->...->P2)
    !(P2->...->P1)
}`)
	if err != nil {
		return nil, err
	}
	sketch := config.Deployment{}
	ensure := func(router string) *config.Config {
		if c, ok := sketch[router]; ok {
			return c
		}
		c := config.New(router)
		sketch[router] = c
		return c
	}
	for _, provider := range []string{"P1", "P2"} {
		if net.Router(provider) == nil {
			return nil, fmt.Errorf("netgen: topology lacks %s", provider)
		}
		for _, r := range internalNeighbors(net, provider) {
			c := ensure(r)
			rm := exportTemplate(r, provider)
			c.AddRouteMap(rm)
			c.AddNeighbor(provider, "", rm.Name)
		}
	}
	return &Workload{Name: name, Net: net, Spec: s, Sketch: sketch}, nil
}

// WithPreference extends a workload with the paper's Req2 intent —
// prefer reaching D1 through P1 over P2 — adding the scenarios' tagger
// templates (scenarios.TaggerSketch) at the provider-adjacent routers
// and selector templates (scenarios.SelectorSketch) at the
// customer-adjacent router.
func WithPreference(w *Workload) (*Workload, error) {
	s2, err := spec.Parse(`
Req2 {
    (C->...->P1->D1)
    >> (C->...->P2->D1)
}`)
	if err != nil {
		return nil, err
	}
	w.Spec.Blocks = append(w.Spec.Blocks, s2.Blocks...)

	ensure := func(router string) *config.Config {
		if c, ok := w.Sketch[router]; ok {
			return c
		}
		c := config.New(router)
		w.Sketch[router] = c
		return c
	}
	for _, provider := range []string{"P1", "P2"} {
		for _, r := range internalNeighbors(w.Net, provider) {
			c := ensure(r)
			rm := scenarios.TaggerSketch(r, provider)
			c.AddRouteMap(rm)
			if n := c.Neighbor(provider); n != nil {
				n.ImportMap = rm.Name
			} else {
				c.AddNeighbor(provider, rm.Name, "")
			}
		}
	}
	if w.Net.Router("C") == nil {
		return nil, fmt.Errorf("netgen: topology lacks C")
	}
	for _, r := range internalNeighbors(w.Net, "C") {
		c := ensure(r)
		for _, nb := range internalNeighbors(w.Net, r) {
			rm := scenarios.SelectorSketch(r, nb)
			c.AddRouteMap(rm)
			c.AddNeighbor(nb, rm.Name, "")
		}
	}
	return w, nil
}

// Populate gives every internal router the sketch leaves unconfigured
// a minimal concrete config: a permit-all import map on each internal
// neighbor session. The maps are semantically neutral (a single permit
// clause with no matches or sets accepts exactly what an absent map
// accepts), but they make every router a configured — hence
// explainable — device. Whole-network report experiments at scale need
// this: without it only the handful of sketch routers produce report
// sections, no matter how large the topology is.
func Populate(w *Workload) *Workload {
	for _, r := range w.Net.Internals() {
		if _, ok := w.Sketch[r.Name]; ok {
			continue
		}
		c := config.New(r.Name)
		for _, nb := range internalNeighbors(w.Net, r.Name) {
			rm := &config.RouteMap{
				Name:    fmt.Sprintf("%s_from_%s", r.Name, nb),
				Clauses: []*config.Clause{{Seq: 10, Action: config.Permit}},
			}
			c.AddRouteMap(rm)
			c.AddNeighbor(nb, rm.Name, "")
		}
		w.Sketch[r.Name] = c
	}
	return w
}

// Grid builds a no-transit workload on a w x h grid; withPref adds the
// preference intent.
func Grid(w, h int, withPref bool) (*Workload, error) {
	wl, err := NoTransit(fmt.Sprintf("grid_%dx%d", w, h), topology.Grid(w, h))
	if err != nil {
		return nil, err
	}
	if withPref {
		return WithPreference(wl)
	}
	return wl, nil
}

// Random builds a no-transit workload on a seeded random topology.
func Random(n int, avgDegree float64, seed int64, withPref bool) (*Workload, error) {
	wl, err := NoTransit(fmt.Sprintf("rand_%d_s%d", n, seed), topology.Random(n, avgDegree, seed))
	if err != nil {
		return nil, err
	}
	if withPref {
		return WithPreference(wl)
	}
	return wl, nil
}

// FatTree builds a no-transit workload on a k-ary fat-tree.
func FatTree(k int, withPref bool) (*Workload, error) {
	wl, err := NoTransit(fmt.Sprintf("fattree_%d", k), topology.FatTree(k))
	if err != nil {
		return nil, err
	}
	if withPref {
		return WithPreference(wl)
	}
	return wl, nil
}
