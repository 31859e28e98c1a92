package synth

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/topology"
)

// vocab holds the finite sorts the encoding ranges over: route-map
// actions, the network's prefixes, the community vocabulary, and the
// neighbor names usable in next-hop matches. A vocab is immutable once
// built, so encoders share one freely. An encoder with a base attached
// derives its vocabulary from the base's (Base.deriveVocab), looking
// only at its dirty routers and reusing the base's sort objects
// whenever its tag sets come out unchanged; only an encoder without a
// base (synthesis, and building a base from scratch) walks the whole
// sketch (buildVocab).
type vocab struct {
	actionSort *logic.Sort
	prefixSort *logic.Sort
	commSort   *logic.Sort
	nbrSort    *logic.Sort
	ipSort     *logic.Sort

	prefixes    []string // sorted prefix strings
	communities []bgp.Community
}

// actionPermit and actionDeny are the two constants of the action
// sort.
const (
	actionPermit = "permit"
	actionDeny   = "deny"
)

// The always-present tags: community and next-hop holes have room to
// choose even in a deployment that mentions no concrete tag.
var (
	alwaysCommunities = []bgp.Community{bgp.MustCommunity("100:1"), bgp.MustCommunity("100:2")}
	alwaysNextHopIPs  = []string{"10.0.0.1", "10.0.0.2"}
)

// buildVocab builds a sketch's vocabulary from scratch: the topology's
// prefixes and router names, and the tags of every config.
func buildVocab(net *topology.Network, sketch config.Deployment) *vocab {
	v := &vocab{}
	v.actionSort = logic.NewEnumSort("RMAction", actionPermit, actionDeny)

	seenP := map[string]bool{}
	for _, r := range net.Routers() {
		if r.HasPrefix {
			seenP[r.Prefix.String()] = true
		}
	}
	for p := range seenP {
		v.prefixes = append(v.prefixes, p)
	}
	sort.Strings(v.prefixes)
	v.prefixSort = logic.NewEnumSort("Prefix", v.prefixes...)
	v.nbrSort = logic.NewEnumSort("Neighbor", net.RouterNames()...)

	tags := countTags(sketch)
	v.setCommunities(positive(tags.comms, nil))
	v.setIPs(positive(tags.ips, nil))
	return v
}

// setCommunities installs the community vocabulary, sorted by printed
// form, and its enum sort.
func (v *vocab) setCommunities(comms []bgp.Community) {
	sort.Slice(comms, func(i, j int) bool { return comms[i].String() < comms[j].String() })
	names := make([]string, len(comms))
	for i, c := range comms {
		names[i] = "c" + c.String()
	}
	v.communities = comms
	v.commSort = logic.NewEnumSort("Community", names...)
}

// setIPs installs the next-hop IP vocabulary, sorted, and its enum
// sort.
func (v *vocab) setIPs(ips []string) {
	sort.Strings(ips)
	v.ipSort = logic.NewEnumSort("NextHopIP", ips...)
}

// vocabContrib returns one configuration's contribution to the
// deployment-dependent vocabulary: the concrete community tags and
// next-hop IPs its route-maps mention, each listed once, in no
// particular order. A hole contributes nothing (its value is the
// model's to choose). This is the one walk behind buildVocab, the
// base's per-tag counts (countTags) and ReadKeys.
func vocabContrib(c *config.Config) (comms []bgp.Community, ips []string) {
	addComm := func(x bgp.Community) {
		if !slices.Contains(comms, x) {
			comms = append(comms, x)
		}
	}
	for _, rm := range c.RouteMaps {
		for _, cl := range rm.Clauses {
			for _, m := range cl.Matches {
				if m.Kind == config.MatchCommunity && m.ValueHole == "" {
					addComm(m.Community)
				}
			}
			for _, s := range cl.Sets {
				if s.ParamHole != "" {
					continue
				}
				switch {
				case s.Kind == config.SetCommunity:
					addComm(s.Community)
				case s.Kind == config.SetNextHopIP && s.NextHopIP != "" && !slices.Contains(ips, s.NextHopIP):
					ips = append(ips, s.NextHopIP)
				}
			}
		}
	}
	return comms, ips
}

// tagCounts counts, for each concrete community tag and next-hop IP,
// how many configs of a deployment mention it. Each always-present tag
// carries one extra standing count, so no config edit removes it. The
// vocabulary is exactly the set of tags with a positive count.
type tagCounts struct {
	comms map[bgp.Community]int
	ips   map[string]int
}

// countTags counts the tags of every config of the deployment.
func countTags(dep config.Deployment) tagCounts {
	tc := tagCounts{comms: map[bgp.Community]int{}, ips: map[string]int{}}
	for _, c := range alwaysCommunities {
		tc.comms[c] = 1
	}
	for _, ip := range alwaysNextHopIPs {
		tc.ips[ip] = 1
	}
	for _, c := range dep {
		tc.add(c, 1)
	}
	return tc
}

// add adjusts the counts by one config's contribution: by is +1 for a
// config entering the deployment, -1 for one leaving it.
func (tc tagCounts) add(c *config.Config, by int) {
	comms, ips := vocabContrib(c)
	for _, x := range comms {
		tc.comms[x] += by
	}
	for _, ip := range ips {
		tc.ips[ip] += by
	}
}

// crossesZero reports whether adjusting counts by delta moves some
// tag's count across zero: exactly when the set of tags with a positive
// count changes.
func crossesZero[K comparable](counts, delta map[K]int) bool {
	for k, d := range delta {
		if (counts[k] > 0) != (counts[k]+d > 0) {
			return true
		}
	}
	return false
}

// positive returns, unordered, the tags whose count adjusted by delta
// (nil for none) is positive.
func positive[K comparable](counts, delta map[K]int) []K {
	var out []K
	for k, n := range counts {
		if n+delta[k] > 0 {
			out = append(out, k)
		}
	}
	for k, d := range delta {
		if _, ok := counts[k]; !ok && d > 0 {
			out = append(out, k)
		}
	}
	return out
}

// commConst returns the enum literal of a community.
func (v *vocab) commConst(c bgp.Community) *logic.EnumLit {
	return logic.NewEnum(v.commSort, "c"+c.String())
}

// prefixConst returns the enum literal of a prefix string.
func (v *vocab) prefixConst(p string) *logic.EnumLit {
	return logic.NewEnum(v.prefixSort, p)
}

// routeState is the symbolic attribute state of a route announcement
// at some point along a candidate propagation path.
type routeState struct {
	// prefix is the (always concrete) destination prefix string.
	prefix string
	// lp is the local-preference rank at the current node, an
	// Int-sorted term.
	lp logic.Term
	// comms maps each vocabulary community to the (Bool-sorted)
	// condition under which the route carries it. Absent means false.
	comms map[bgp.Community]logic.Term
	// nextHop is the neighbor the current node learned the route from
	// ("" at the origin). Always concrete: it is determined by the
	// candidate path.
	nextHop string
}

func originState(prefix string) *routeState {
	return &routeState{
		prefix: prefix,
		lp:     logic.NewInt(lpRankDefault),
		comms:  map[bgp.Community]logic.Term{},
	}
}

func (s *routeState) clone() *routeState {
	cp := *s
	cp.comms = make(map[bgp.Community]logic.Term, len(s.comms))
	for c, t := range s.comms {
		cp.comms[c] = t
	}
	return &cp
}

// hasComm returns the condition under which the route carries c.
func (s *routeState) hasComm(c bgp.Community) logic.Term {
	if t, ok := s.comms[c]; ok {
		return t
	}
	return logic.False
}

// holeVar creates (or reuses) the logic variable for a hole. The hole
// kind determines the sort.
func (e *Encoder) holeVar(name string, mk func() *logic.Var) (*logic.Var, error) {
	if v, ok := e.holeVars[name]; ok {
		fresh := mk()
		if !logic.SameSort(v.S, fresh.S) {
			return nil, fmt.Errorf("synth: hole %q used at two sorts (%v and %v)", name, v.S, fresh.S)
		}
		return v, nil
	}
	v := mk()
	e.holeVars[name] = v
	return v, nil
}
