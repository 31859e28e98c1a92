package synth

import (
	"context"
	"sort"

	"repro/internal/spec"
)

// scopedCtxInterval is how many constraint groups pass between context
// checks during a scoped splice.
const scopedCtxInterval = 256

// encodeScoped is the cone-scoped encode: rebuild the candidate graph
// by mapping the base's candidates (pointer-shared when the path avoids
// every dirty router, re-derived otherwise), then walk the recorded
// groups in order, copying clean spans and re-emitting dirty ones. The
// result is element-wise pointer-identical to the whole-network encode
// of the same sketch: a shared candidate's terms are the ones the
// whole-network encode would derive from the same configs (hash-
// consing makes them the same pointers), re-derived ones run the same
// edgePass over pointer-identical inputs, and group emission is a
// deterministic function of the candidates — so everything downstream
// (simplification, lifting, reports) is byte-identical.
func (e *Encoder) encodeScoped(ctx context.Context, reqs []spec.Requirement) (*Encoding, error) {
	b := e.base
	if err := e.declareScopedHoles(); err != nil {
		return nil, err
	}

	// Map every candidate of the base into this encoder's graph.
	mappedBy := make(map[*candidate]*candidate)
	rederived := 0
	var mapCand func(bc *candidate) (*candidate, error)
	mapCand = func(bc *candidate) (*candidate, error) {
		if nc, ok := mappedBy[bc]; ok {
			return nc, nil
		}
		if bc.parent == nil || e.pathClean(bc.path) {
			// Origin states depend only on the prefix; clean paths carry
			// edge conditions and states no dirty config can reach.
			mappedBy[bc] = bc
			return bc, nil
		}
		parent, err := mapCand(bc.parent)
		if err != nil {
			return nil, err
		}
		cond, st, err := e.edgePass(parent.node(), bc.node(), parent.state)
		if err != nil {
			return nil, err
		}
		nc := &candidate{
			prefix:   bc.prefix,
			path:     bc.path,
			parent:   parent,
			edgeCond: cond,
			state:    st,
			sel:      bc.sel, // interned by name: identical to a fresh encode's
		}
		rederived++
		mappedBy[bc] = nc
		return nc, nil
	}

	// dirtyGroup marks the (prefix, router) groups containing at least
	// one re-derived candidate: exactly the groups whose constraints
	// must be re-emitted.
	dirtyGroup := make(map[[2]string]bool)
	for prefix, byNode := range b.cands {
		nm := make(map[string][]*candidate, len(byNode))
		for node, cs := range byNode {
			list := make([]*candidate, len(cs))
			changed := false
			for i, bc := range cs {
				nc, err := mapCand(bc)
				if err != nil {
					return nil, err
				}
				list[i] = nc
				changed = changed || nc != bc
			}
			nm[node] = list
			if changed {
				dirtyGroup[[2]string{prefix, node}] = true
			}
		}
		e.cands[prefix] = nm
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	copySpan := func(g span) {
		e.constraints = append(e.constraints, b.enc.Constraints[g.start:g.end]...)
		e.stats.ConstraintSize += g.size
		e.stats.ScopedGroupsCopied++
	}
	for i, g := range b.selGroups {
		if i%scopedCtxInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !dirtyGroup[[2]string{g.prefix, g.node}] {
			copySpan(g.span)
			continue
		}
		start := len(e.constraints)
		e.encodeSelectionGroup(e.cands[g.prefix][g.node])
		e.closeSpan(start)
		e.stats.ScopedGroupsEncoded++
	}
	for i, r := range reqs {
		if !e.reqNeedsReencode(r, dirtyGroup) {
			// Forbid and Allow blocks mention only selection variables,
			// which are shared; a clean-source Preference block's full
			// chains are clean too. Copy verbatim.
			copySpan(b.reqGroups[i])
			continue
		}
		start := len(e.constraints)
		if err := e.encodeRequirement(r); err != nil {
			return nil, err
		}
		e.closeSpan(start)
		e.stats.ScopedGroupsEncoded++
	}

	// Enumeration stats transfer from the recording encoder (the BFS is
	// a function of topology and options alone); every candidate not
	// re-derived was reused from the base.
	bs := b.enc.Stats
	e.stats.Candidates = bs.Candidates
	e.stats.SelVars = bs.SelVars
	e.stats.TruncatedPaths = bs.TruncatedPaths
	e.stats.ReusedCandidates = bs.Candidates - rederived
	e.finishStats()
	return e.finishEncoding(), nil
}

// reqNeedsReencode reports whether a requirement's recorded constraint
// block can be affected by the dirty set. Forbid and Allow emit terms
// over selection variables only — shared across scoped encodes by
// construction — so their blocks always copy. A Preference block
// additionally mentions edge conditions and local-pref states along the
// source router's candidate chains, so it re-encodes when the source's
// selection group is dirty (a chain candidate is dirty only if the
// source candidate extending it is, since the chain's path is a prefix
// of the source candidate's).
func (e *Encoder) reqNeedsReencode(r spec.Requirement, dirtyGroup map[[2]string]bool) bool {
	p, ok := r.(*spec.Preference)
	if !ok {
		return false
	}
	if len(p.Paths) == 0 {
		return true // malformed: let encodeRequirement produce the error
	}
	src, dst := p.Paths[0].First(), p.Paths[0].Last()
	origin := e.net.Router(dst)
	if origin == nil || !origin.HasPrefix {
		return true // malformed: let encodeRequirement produce the error
	}
	return dirtyGroup[[2]string{origin.Prefix.String(), src}]
}

// pathClean reports whether no node of the path is dirty relative to
// the base deployment.
func (e *Encoder) pathClean(path []string) bool {
	for _, n := range path {
		if e.dirty[n] {
			return false
		}
	}
	return true
}

// declareScopedHoles declares the hole variables of the sketch. Only
// dirty routers can carry holes — the base deployment is concrete, and
// a config equal (by pointer) to a concrete config has no holes — so
// the walk is bounded by the dirty set, yet declares exactly the
// variables declareAllHoles would.
func (e *Encoder) declareScopedHoles() error {
	routers := make([]string, 0, len(e.dirty))
	for r := range e.dirty {
		if _, ok := e.sketch[r]; ok {
			routers = append(routers, r)
		}
	}
	sort.Strings(routers)
	return e.declareHolesOf(routers)
}
