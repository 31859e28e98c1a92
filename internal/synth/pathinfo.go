package synth

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/topology"
)

// PathInfo exposes one candidate propagation path with its symbolic
// ingredients — the explanation engine's lifting step builds candidate
// subspecification encodings from these.
type PathInfo struct {
	// Prefix is the destination prefix string.
	Prefix string
	// Path is the propagation path, origin first.
	Path []string
	// EdgeConds[i] is the symbolic condition under which the route
	// passes the edge Path[i] -> Path[i+1] (export policy at Path[i],
	// import policy at Path[i+1]).
	EdgeConds []logic.Term
	// LP is the local-preference rank term of the route as held at the
	// final node.
	LP logic.Term
	// Sel is the selection variable at the final node (nil at the
	// origin).
	Sel *logic.Var
}

// Traffic returns the traffic-direction view of the path (destination
// side last).
func (p PathInfo) Traffic() []string { return reverse(p.Path) }

// PathInfos lists every candidate of the encoding, sorted by prefix
// then path, rebuilt from the encoder's candidate graph. The list is
// materialized on first call (concurrency-safe) and cached; each call
// returns its own copy of the list. A router's lift reads
// PathInfosThrough instead: only user-written clauses, checked by
// core.CheckSubspec over the session base (Base.PathInfos), may name
// routes that avoid the router.
func (enc *Encoding) PathInfos() []PathInfo {
	enc.pathsOnce.Do(func() { enc.paths = enc.pathInfos("") })
	return append([]PathInfo(nil), enc.paths...)
}

// PathInfosThrough lists the candidates whose path contains node, in
// PathInfos order: the order-preserving filter of PathInfos, built from
// the candidate graph on each call without flattening the rest of it.
func (enc *Encoding) PathInfosThrough(node string) []PathInfo {
	return enc.pathInfos(node)
}

// pathInfos flattens the candidate graph: every candidate whose path
// contains node (every candidate when node is empty), sorted by prefix
// then joined path. Origins carry no edges and are left out.
func (enc *Encoding) pathInfos(node string) []PathInfo {
	type keyed struct {
		key string // the path joined by ",", computed once per candidate
		c   *candidate
	}
	var out []PathInfo
	prefixes := make([]string, 0, len(enc.cands.byPrefix))
	for p := range enc.cands.byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	var all []keyed
	for _, prefix := range prefixes {
		all = all[:0]
		for n := range enc.cands.byPrefix[prefix] {
			for _, c := range enc.cands.at(prefix, n) {
				if c.parent != nil && (node == "" || slices.Contains(c.path, node)) {
					all = append(all, keyed{strings.Join(c.path, ","), c})
				}
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
		for _, k := range all {
			c := k.c
			// Collect the edge conditions along the chain.
			var chain []*candidate
			for cur := c; cur.parent != nil; cur = cur.parent {
				chain = append(chain, cur)
			}
			conds := make([]logic.Term, len(chain))
			for i := range chain {
				conds[len(chain)-1-i] = chain[i].edgeCond
			}
			out = append(out, PathInfo{
				Prefix:    prefix,
				Path:      append([]string(nil), c.path...),
				EdgeConds: conds,
				LP:        c.state.lp,
				Sel:       c.sel,
			})
		}
	}
	return out
}

// PreferredTerm builds the condition under which route a is at least
// as preferred as route b at their (shared) final node, the encoder's
// own decision-process term (see preferred). Both paths must end at the
// same node and concern the same prefix.
func PreferredTerm(a, b PathInfo, net *topology.Network) logic.Term {
	return preferred(a.Path, a.LP, b.Path, b.LP, net)
}
