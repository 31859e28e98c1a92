package synth

import (
	"context"
	"slices"
	"sort"

	"repro/internal/logic"
	"repro/internal/spec"
)

// scopedCtxInterval is how many re-encoded constraint groups pass
// between context checks during a scoped splice.
const scopedCtxInterval = 256

// encodeScoped is the cone-scoped encode: re-derive the base candidates
// whose path crosses a dirty router (Base.through lists them), overlay
// the base's candidate graph with only the groups holding one, then
// walk the recorded groups in order, copying each run of clean spans in
// one slice and re-emitting dirty groups, and intern the conjunction
// (Encoding.intern), which leaves that slice garbage. An encode that
// re-encodes no group returns the base's list and seed term instead.
// The result is element-wise pointer-identical to the whole-network
// encode of the same sketch: a shared candidate's terms are the ones
// the whole-network encode would derive from the same configs
// (hash-consing makes them the same pointers), re-derived ones run the
// same edgePass over pointer-identical inputs, and group emission is a
// deterministic function of the candidates — so everything downstream
// (simplification, lifting, reports) is byte-identical.
func (e *Encoder) encodeScoped(ctx context.Context) (*Encoding, error) {
	b := e.base
	if err := e.declareScopedHoles(); err != nil {
		return nil, err
	}

	// Re-derive every candidate through a dirty router. A candidate's
	// parent path is a prefix of its own, so parents outside the cone
	// are shared as they are.
	mapped := make(map[*candidate]*candidate)
	var mapCand func(bc *candidate) (*candidate, error)
	mapCand = func(bc *candidate) (*candidate, error) {
		if nc, ok := mapped[bc]; ok {
			return nc, nil
		}
		if bc.parent == nil || e.pathClean(bc.path) {
			// Origin states depend only on the prefix; clean paths carry
			// edge conditions and states no dirty config can reach.
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
		mapped[bc] = nc
		return nc, nil
	}
	dirtyRouters := make([]string, 0, len(e.dirty))
	for r := range e.dirty {
		dirtyRouters = append(dirtyRouters, r)
	}
	sort.Strings(dirtyRouters)
	for _, r := range dirtyRouters {
		for _, bc := range b.through[r] {
			if _, err := mapCand(bc); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// dirtyGroup marks the (prefix, router) groups holding a re-derived
	// candidate: exactly the groups whose constraints must be
	// re-emitted.
	dirtyGroup := make(map[[2]string]bool)
	dirtyIdx := make([]int, 0, len(mapped))
	for bc := range mapped {
		g := [2]string{bc.prefix, bc.node()}
		if !dirtyGroup[g] {
			dirtyGroup[g] = true
			dirtyIdx = append(dirtyIdx, b.groupOf[g])
		}
	}
	slices.Sort(dirtyIdx)

	// Enumeration stats transfer from the recording encoder (the BFS is
	// a function of topology and options alone); every candidate not
	// re-derived was reused from the base.
	bs := b.enc.Stats
	e.stats.Candidates = bs.Candidates
	e.stats.SelVars = bs.SelVars
	e.stats.TruncatedPaths = bs.TruncatedPaths
	e.stats.ReusedCandidates = bs.Candidates - len(mapped)

	e.cands = candGraph{byPrefix: b.cands}
	if len(dirtyIdx) == 0 {
		// Nothing to re-encode (a requirement block re-encodes only with
		// a dirty group): the constraints are the base's, list and seed
		// term, and only the hole variables are the encode's own.
		e.constraints = b.enc.Constraints
		e.stats.ConstraintSize = b.enc.Stats.ConstraintSize
		e.stats.ScopedGroupsCopied = len(b.selGroups) + len(b.reqs)
		e.finishStats()
		enc := e.finishEncoding()
		enc.seed = b.enc.seed
		return enc, nil
	}

	// The graph is the base's, read-only, with each dirty group
	// overlaid by its list with the re-derived candidates in place.
	e.cands.over = make(map[string]map[string][]*candidate)
	for _, gi := range dirtyIdx {
		g := b.selGroups[gi]
		list := slices.Clone(b.cands[g.prefix][g.node])
		for i, bc := range list {
			if nc, ok := mapped[bc]; ok {
				list[i] = nc
			}
		}
		byNode := e.cands.over[g.prefix]
		if byNode == nil {
			byNode = make(map[string][]*candidate)
			e.cands.over[g.prefix] = byNode
		}
		byNode[g.node] = list
	}

	// Copy each run of clean groups as one slice of the base's
	// constraints (groups are recorded back to back), re-encode the
	// dirty groups between runs.
	e.constraints = make([]logic.Term, 0, len(b.enc.Constraints))
	run := 0 // first group of the pending clean run
	copyRun := func(end int) {
		if run == end {
			return
		}
		first, last := b.selGroups[run], b.selGroups[end-1]
		e.constraints = append(e.constraints, b.enc.Constraints[first.start:last.end]...)
		for _, g := range b.selGroups[run:end] {
			e.stats.ConstraintSize += g.size
		}
		e.stats.ScopedGroupsCopied += end - run
	}
	for i, gi := range dirtyIdx {
		if i%scopedCtxInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		copyRun(gi)
		g := b.selGroups[gi]
		start := len(e.constraints)
		e.encodeSelectionGroup(e.cands.at(g.prefix, g.node))
		e.closeSpan(start)
		e.stats.ScopedGroupsEncoded++
		run = gi + 1
	}
	copyRun(len(b.selGroups))
	for i, r := range b.reqs {
		if !e.reqNeedsReencode(r, dirtyGroup) {
			// Forbid and Allow blocks mention only selection variables,
			// which are shared; a clean-source Preference block's full
			// chains are clean too. Copy verbatim.
			g := b.reqGroups[i]
			e.constraints = append(e.constraints, b.enc.Constraints[g.start:g.end]...)
			e.stats.ConstraintSize += g.size
			e.stats.ScopedGroupsCopied++
			continue
		}
		start := len(e.constraints)
		if err := e.encodeRequirement(r); err != nil {
			return nil, err
		}
		e.closeSpan(start)
		e.stats.ScopedGroupsEncoded++
	}

	e.finishStats()
	enc := e.finishEncoding()
	enc.intern()
	return enc, nil
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
		if c, _ := e.config(r); c != nil {
			routers = append(routers, r)
		}
	}
	sort.Strings(routers)
	return e.declareHolesOf(routers)
}
