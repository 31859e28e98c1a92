package synth

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/spec"
	"repro/internal/topology"
)

// candidate is one potential propagation path of a prefix, ending at
// the last node of path.
type candidate struct {
	prefix string
	path   []string // propagation path, origin first
	parent *candidate
	// edgeCond is the symbolic pass condition of the final edge
	// (export at parent's node, import here).
	edgeCond logic.Term
	// state is the route's symbolic attribute state at the final node.
	state *routeState
	// sel is the selection variable ("this node picks this
	// candidate"). Nil for the origin candidate, which is always
	// selected.
	sel *logic.Var
}

// node returns the candidate's final node.
func (c *candidate) node() string { return c.path[len(c.path)-1] }

// availTerm is the condition under which the candidate is available
// for selection: the parent selected its path and the final edge
// passed.
func (c *candidate) availTerm() logic.Term {
	if c.parent == nil {
		return logic.True
	}
	parentSel := logic.Term(logic.True)
	if c.parent.sel != nil {
		parentSel = c.parent.sel
	}
	return logic.And(parentSel, c.edgeCond)
}

// selTerm is the candidate's selection condition as a term.
func (c *candidate) selTerm() logic.Term {
	if c.sel == nil {
		return logic.True
	}
	return c.sel
}

// fullPassTerm is the condition under which the route can physically
// propagate along the whole candidate path: every edge's policy chain
// permits it, regardless of what routers select. Its negation is how
// "this path must not exist" requirements are encoded (the drops at
// import interfaces in the paper's Figure 4).
func (c *candidate) fullPassTerm() logic.Term {
	if c.parent == nil {
		return logic.True
	}
	return logic.And(c.parent.fullPassTerm(), c.edgeCond)
}

func (c *candidate) key() string { return strings.Join(c.path, "_") }

// candGraph is an encoder's candidate graph: byPrefix[prefix][node]
// lists the node's candidates in discovery (BFS) order. A graph
// derived from a base (encodeScoped) holds the base's maps, read-only,
// and over, the groups it re-derived; every reader goes through at,
// so a derived graph costs its cone, not a copy of the network's.
type candGraph struct {
	byPrefix map[string]map[string][]*candidate
	// over holds the re-derived groups of a derived graph by prefix and
	// node, overriding byPrefix's; nil when nothing was re-derived. It
	// adds no prefix or node, so byPrefix's keys are the graph's.
	over map[string]map[string][]*candidate
}

// at returns the candidates of the prefix at the node.
func (g candGraph) at(prefix, node string) []*candidate {
	if cs, ok := g.over[prefix][node]; ok {
		return cs
	}
	return g.byPrefix[prefix][node]
}

// nodes returns, sorted, the nodes holding a candidate of the prefix.
func (g candGraph) nodes(prefix string) []string { return sortedNodes(g.byPrefix[prefix]) }

// EncStats summarizes an encoding, feeding the experiment harness.
type EncStats struct {
	Constraints    int
	ConstraintSize int // total term nodes across constraints
	HoleVars       int
	SelVars        int
	Candidates     int
	TruncatedPaths int
	// ReusedCandidates counts candidates whose edge condition and
	// route state were taken from a Base instead of being recomputed
	// (see Base.Encode). Always <= Candidates.
	ReusedCandidates int
	// ScopedGroupsCopied / ScopedGroupsEncoded count, for an encode
	// derived from a Base (see Base.Encode), the constraint groups spliced
	// verbatim from the recorded whole-network encoding versus
	// re-derived inside the dirty cone. Zero on whole-network encodes.
	ScopedGroupsCopied  int
	ScopedGroupsEncoded int
}

// Encoding is the output of Encode: the constraint system plus the
// variable inventory needed to decode models and to explain.
type Encoding struct {
	// Constraints is the full constraint list; their conjunction is
	// the paper's "seed specification" shape. In a base's encoding and
	// every encoding derived from one (Base.Encode) the slice is the
	// argument list of the interned conjunction (Conjunction), shared
	// with the term table and, where nothing was re-encoded, with the
	// base: it is read-only, never write to it.
	Constraints []logic.Term
	// HoleVars maps hole names to their logic variables.
	HoleVars map[string]*logic.Var
	// Stats summarizes encoding size.
	Stats EncStats

	// seed is the interned conjunction of Constraints, set when a base
	// or derived encoding is finished (intern); nil on plain encodes.
	seed logic.Term
	// cands is the encoder's candidate graph, read-only once encoded;
	// PathInfos and PathInfosThrough flatten it on demand.
	cands candGraph
	// paths is materialized on first PathInfos call (CheckSubspec reads
	// the session base's; lifts and unlifted sweeps never pay for it).
	pathsOnce sync.Once
	paths     []PathInfo
}

// Conjunction returns the constraints as a single term: for a base's
// or a derived encoding the node interned when it was finished, whose
// argument slice Constraints is; for a plain encode the conjunction
// interned on each call (interning copies the argument slice of a node
// it keeps, so that term never aliases Constraints).
func (enc *Encoding) Conjunction() logic.Term {
	if enc.seed != nil {
		return enc.seed
	}
	return logic.And(enc.Constraints...)
}

// intern interns the conjunction once and keeps Constraints as the
// interned node's arguments, pointer-identical element by element, so
// the list the encoder built is garbage once this returns and the
// encoding holds its constraints in one place, the term table's.
func (enc *Encoding) intern() {
	enc.seed = logic.And(enc.Constraints...)
	if len(enc.Constraints) > 1 {
		enc.Constraints = enc.seed.(*logic.Apply).Args
	}
}

// Encoder builds constraint encodings. Create with NewEncoder; one
// encoder may encode once.
type Encoder struct {
	net *topology.Network
	// sketch is the deployment the encoder reads: the sketch itself,
	// or, for an encoder derived from a base (Base.Encode), the base
	// deployment, with each router in over configured as over says.
	// Read configs through config.
	sketch config.Deployment
	over   map[string]*config.Config
	opts   Options
	// vocab is settled on first use (see voc).
	vocab *vocab

	holeVars    map[string]*logic.Var
	cands       candGraph
	constraints []logic.Term
	stats       EncStats
	// selGroups and reqGroups record, in emission order, the constraint
	// span of every selection group and requirement block a
	// whole-network encode emits (NewBase keeps them).
	selGroups []selGroup
	reqGroups []span

	// base, set for Base.Encode, replaces the whole-network encode
	// with a cone-scoped splice against the base's recorded encoding:
	// only constraint groups touching a dirty router (an override that
	// differs from the base deployment's config) are re-encoded, the
	// rest are copied span by span (see encodeScoped).
	base  *Base
	dirty map[string]bool
}

// NewEncoder creates an encoder over a topology and a (possibly
// symbolic) deployment sketch.
func NewEncoder(net *topology.Network, sketch config.Deployment, opts Options) *Encoder {
	return &Encoder{
		net:      net,
		sketch:   sketch,
		opts:     opts.withDefaults(),
		holeVars: make(map[string]*logic.Var),
		cands:    candGraph{byPrefix: make(map[string]map[string][]*candidate)},
	}
}

// config returns the configuration the encoder reads for a router.
func (e *Encoder) config(name string) (*config.Config, bool) {
	if c, ok := e.over[name]; ok {
		return c, true
	}
	c, ok := e.sketch[name]
	return c, ok
}

// voc returns the encoder's vocabulary: derived from the base when
// there is one (Base.deriveVocab walks only the dirty routers), built
// from the whole sketch otherwise. Both yield the same sorts.
func (e *Encoder) voc() *vocab {
	if e.vocab == nil {
		if e.base != nil {
			e.vocab = e.base.deriveVocab(e.over, e.dirty)
		} else {
			e.vocab = buildVocab(e.net, e.sketch)
		}
	}
	return e.vocab
}

// assert emits one constraint, interned in the default term table (an
// O(1) ownership check when the term was built by the logic
// constructors).
func (e *Encoder) assert(t logic.Term) {
	e.constraints = append(e.constraints, logic.Intern(t))
}

// Encode builds the constraint system for the requirements.
func (e *Encoder) Encode(reqs []spec.Requirement) (*Encoding, error) {
	return e.EncodeContext(context.Background(), reqs)
}

// EncodeContext is Encode with cancellation: the context is checked
// between encoding phases and inside candidate enumeration.
func (e *Encoder) EncodeContext(ctx context.Context, reqs []spec.Requirement) (*Encoding, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.declareAllHoles(); err != nil {
		return nil, err
	}
	if err := e.enumerateCandidates(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.forEachSelectionGroup(func(prefix, node string, cands []*candidate) {
		start := len(e.constraints)
		e.encodeSelectionGroup(cands)
		e.selGroups = append(e.selGroups, selGroup{prefix: prefix, node: node, span: e.closeSpan(start)})
	})
	for _, r := range reqs {
		start := len(e.constraints)
		if err := e.encodeRequirement(r); err != nil {
			return nil, err
		}
		e.reqGroups = append(e.reqGroups, e.closeSpan(start))
	}
	e.finishStats()
	return e.finishEncoding(), nil
}

// encodeRequirement checks that every node the requirement's paths name
// is in the topology, then dispatches it to its encoder.
func (e *Encoder) encodeRequirement(r spec.Requirement) error {
	var paths []spec.Path
	switch q := r.(type) {
	case *spec.Forbid:
		paths = []spec.Path{q.Path}
	case *spec.Allow:
		paths = []spec.Path{q.Path}
	case *spec.Preference:
		paths = q.Paths
	default:
		return fmt.Errorf("synth: unsupported requirement %T", r)
	}
	for _, p := range paths {
		for _, n := range p {
			if n != spec.Wildcard && e.net.Router(n) == nil {
				return fmt.Errorf("synth: requirement %s names %q, which is not in the topology", r, n)
			}
		}
	}
	switch q := r.(type) {
	case *spec.Forbid:
		return e.encodeForbid(q)
	case *spec.Allow:
		return e.encodeAllow(q)
	}
	return e.encodePreference(r.(*spec.Preference))
}

// closeSpan returns the span of the constraints emitted since start,
// measuring their term size and adding it to ConstraintSize. Every
// constraint is emitted inside some span, so the spans' sizes sum to
// the encoding's.
func (e *Encoder) closeSpan(start int) span {
	sp := span{start: start, end: len(e.constraints)}
	for _, c := range e.constraints[start:] {
		sp.size += logic.Size(c)
	}
	e.stats.ConstraintSize += sp.size
	return sp
}

// finishStats fills the count fields computed from the final
// constraint list. The candidate-enumeration fields and ConstraintSize
// are already in place.
func (e *Encoder) finishStats() {
	e.stats.Constraints = len(e.constraints)
	e.stats.HoleVars = len(e.holeVars)
}

// finishEncoding packages the encoder's state. Path infos build lazily
// on first use: the candidate graph is immutable once encoded, and the
// sync.Once makes PathInfos' materialization safe under the session
// cache's concurrent readers.
func (e *Encoder) finishEncoding() *Encoding {
	return &Encoding{
		Constraints: e.constraints,
		HoleVars:    e.holeVars,
		Stats:       e.stats,
		cands:       e.cands,
	}
}

// declareAllHoles walks the sketch and creates a variable for every
// hole, even holes on route maps no candidate path crosses — so models
// always cover them and explanations can report them as unconstrained.
func (e *Encoder) declareAllHoles() error {
	routers := make([]string, 0, len(e.sketch))
	for r := range e.sketch {
		routers = append(routers, r)
	}
	for r := range e.over {
		if _, ok := e.sketch[r]; !ok {
			routers = append(routers, r)
		}
	}
	sort.Strings(routers)
	return e.declareHolesOf(routers)
}

// declareHolesOf declares the holes of the named sketch routers, in the
// given order.
func (e *Encoder) declareHolesOf(routers []string) error {
	for _, router := range routers {
		c, _ := e.config(router)
		for _, name := range c.RouteMapNames() {
			for _, cl := range c.RouteMaps[name].Clauses {
				if cl.ActionHole != "" {
					if _, err := e.holeVar(cl.ActionHole, func() *logic.Var {
						return logic.NewEnumVar(cl.ActionHole, e.voc().actionSort)
					}); err != nil {
						return err
					}
				}
				for _, m := range cl.Matches {
					if m.ValueHole == "" {
						continue
					}
					mk, err := e.matchHoleMaker(m)
					if err != nil {
						return err
					}
					if _, err := e.holeVar(m.ValueHole, mk); err != nil {
						return err
					}
				}
				for _, s := range cl.Sets {
					if s.ParamHole == "" {
						continue
					}
					mk, err := e.setHoleMaker(s)
					if err != nil {
						return err
					}
					if _, err := e.holeVar(s.ParamHole, mk); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func (e *Encoder) matchHoleMaker(m *config.Match) (func() *logic.Var, error) {
	switch m.Kind {
	case config.MatchPrefixList:
		return func() *logic.Var { return logic.NewEnumVar(m.ValueHole, e.voc().prefixSort) }, nil
	case config.MatchCommunity:
		return func() *logic.Var { return logic.NewEnumVar(m.ValueHole, e.voc().commSort) }, nil
	case config.MatchNextHopIs:
		return func() *logic.Var { return logic.NewEnumVar(m.ValueHole, e.voc().nbrSort) }, nil
	}
	return nil, fmt.Errorf("synth: unsupported match kind %v", m.Kind)
}

func (e *Encoder) setHoleMaker(s *config.Set) (func() *logic.Var, error) {
	switch s.Kind {
	case config.SetLocalPref, config.SetMED:
		return func() *logic.Var { return logic.NewIntVar(s.ParamHole, 0, LPRankHi) }, nil
	case config.SetCommunity:
		return func() *logic.Var { return logic.NewEnumVar(s.ParamHole, e.voc().commSort) }, nil
	case config.SetNextHopIP:
		return func() *logic.Var { return logic.NewEnumVar(s.ParamHole, e.voc().ipSort) }, nil
	}
	return nil, fmt.Errorf("synth: unsupported set kind %v", s.Kind)
}

// enumerateCandidates runs a BFS per originated prefix, applying edge
// policies symbolically along the way. BFS order makes candidate
// discovery shortest-first and deterministic, so the per-node
// candidate cap keeps the shortest paths. The BFS structure depends
// only on the topology and options, which is what lets a Base's
// candidate graph serve every sketch of its deployment.
func (e *Encoder) enumerateCandidates(ctx context.Context) error {
	for _, origin := range e.net.Routers() {
		if !origin.HasPrefix {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		prefix := origin.Prefix.String()
		byNode := make(map[string][]*candidate)
		e.cands.byPrefix[prefix] = byNode

		root := &candidate{
			prefix: prefix,
			path:   []string{origin.Name},
			state:  originState(prefix),
		}
		byNode[origin.Name] = []*candidate{root}
		queue := []*candidate{root}
		for popped := 0; len(queue) > 0; popped++ {
			if popped%ctxCheckInterval == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			cur := queue[0]
			queue = queue[1:]
			if len(cur.path) >= e.opts.MaxPathLen {
				continue
			}
			// Stub networks never provide transit: a path may start at
			// a stub (its own origination) but never pass through one.
			if r := e.net.Router(cur.node()); r.Stub && cur.node() != origin.Name {
				continue
			}
			for _, nb := range e.net.Neighbors(cur.node()) {
				if contains(cur.path, nb) {
					continue
				}
				if e.opts.MaxCandidatesPerNode > 0 && len(byNode[nb]) >= e.opts.MaxCandidatesPerNode {
					e.stats.TruncatedPaths++
					continue
				}
				path := make([]string, len(cur.path)+1)
				copy(path, cur.path)
				path[len(cur.path)] = nb
				cond, st, err := e.edgePass(cur.node(), nb, cur.state)
				if err != nil {
					return err
				}
				next := &candidate{
					prefix:   prefix,
					path:     path,
					parent:   cur,
					edgeCond: cond,
					state:    st,
				}
				next.sel = logic.NewBoolVar("sel_" + prefix + "_" + next.key())
				e.stats.SelVars++
				byNode[nb] = append(byNode[nb], next)
				queue = append(queue, next)
				e.stats.Candidates++
			}
		}
	}
	return nil
}

// ctxCheckInterval is how many BFS pops pass between context checks
// during candidate enumeration.
const ctxCheckInterval = 64

func contains(path []string, node string) bool {
	for _, n := range path {
		if n == node {
			return true
		}
	}
	return false
}

// forEachSelectionGroup visits every non-origin (prefix, router)
// candidate group in the canonical emission order: vocabulary prefix
// order, then router name order. Both the whole-network encode and the
// scoped splice derive their constraint layout from this walk, which is
// what makes span-copying sound (see Base).
func (e *Encoder) forEachSelectionGroup(f func(prefix, node string, cands []*candidate)) {
	for _, prefix := range e.voc().prefixes {
		for _, node := range e.cands.nodes(prefix) {
			cands := e.cands.at(prefix, node)
			if len(cands) == 1 && cands[0].sel == nil {
				continue // origin
			}
			f(prefix, node, cands)
		}
	}
}

// encodeSelectionGroup emits the selection constraints of one
// (prefix, router) candidate group: sel-implies-avail, at-most-one,
// availability-implies-selection, and the decision process.
func (e *Encoder) encodeSelectionGroup(cands []*candidate) {
	var avails, sels []logic.Term
	for _, c := range cands {
		avails = append(avails, c.availTerm())
		sels = append(sels, c.sel)
		// sel implies avail.
		e.assert(logic.Implies(c.sel, c.availTerm()))
	}
	// At most one selected.
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			e.assert(logic.Or(logic.Not(sels[i]), logic.Not(sels[j])))
		}
	}
	// Some candidate available implies one selected.
	e.assert(logic.Implies(logic.Or(avails...), logic.Or(sels...)))
	// Decision process: a selected candidate must be at least
	// as good as every available one.
	for i, ci := range cands {
		for j, cj := range cands {
			if i == j {
				continue
			}
			e.assert(logic.Implies(
				logic.And(sels[i], avails[j]),
				betterOrEqual(ci, cj, e.net),
			))
		}
	}
}

// betterOrEqual encodes "ci is at least as preferred as cj" under the
// decision process: strictly higher local-pref rank wins; at equal
// rank the concrete tie-break (AS-path length, then hop count, then
// lexicographic path) decides.
func betterOrEqual(ci, cj *candidate, net *topology.Network) logic.Term {
	if tieBreakWins(ci, cj, net) {
		return logic.Ge(ci.state.lp, cj.state.lp)
	}
	return logic.Gt(ci.state.lp, cj.state.lp)
}

// tieBreakWins decides the concrete tie-break between two candidate
// paths (mirrors bgp.Better below the local-pref step, minus MED,
// which the encoding does not model).
func tieBreakWins(ci, cj *candidate, net *topology.Network) bool {
	ai, aj := asPathLen(ci.path, net), asPathLen(cj.path, net)
	if ai != aj {
		return ai < aj
	}
	if len(ci.path) != len(cj.path) {
		return len(ci.path) < len(cj.path)
	}
	return strings.Join(ci.path, ",") < strings.Join(cj.path, ",")
}

// asPathLen counts AS-level hops of a propagation path.
func asPathLen(path []string, net *topology.Network) int {
	count := 1
	for i := 1; i < len(path); i++ {
		if net.Router(path[i]).AS != net.Router(path[i-1]).AS {
			count++
		}
	}
	return count
}

// encodeForbid forbids selecting, anywhere in the network, a route
// whose traffic path contains the pattern. A pattern no candidate path
// matches is vacuously satisfied.
func (e *Encoder) encodeForbid(f *spec.Forbid) error {
	for _, prefix := range e.voc().prefixes {
		for _, node := range e.cands.nodes(prefix) {
			for _, c := range e.cands.at(prefix, node) {
				if !matchesTraffic(f.Path, c.path) {
					continue
				}
				if c.sel == nil {
					return fmt.Errorf("synth: forbidden path %s matches an origin announcement", f.Path)
				}
				e.assert(logic.Not(c.sel))
			}
		}
	}
	return nil
}

// encodeAllow requires traffic from the pattern's source to reach its
// destination along some matching path: at least one matching
// candidate must be selected at the source.
func (e *Encoder) encodeAllow(a *spec.Allow) error {
	src, dst := a.Path.First(), a.Path.Last()
	origin := e.net.Router(dst)
	if origin == nil || !origin.HasPrefix {
		return fmt.Errorf("synth: allow destination %q does not originate a prefix", dst)
	}
	prefix := origin.Prefix.String()
	var sels []logic.Term
	for _, c := range e.cands.at(prefix, src) {
		if matchesTrafficExact(a.Path, c.path) {
			sels = append(sels, c.selTerm())
		}
	}
	if len(sels) == 0 {
		return fmt.Errorf("synth: allow pattern %s matches no candidate path", a.Path)
	}
	e.assert(logic.Or(sels...))
	return nil
}

// encodePreference encodes an ordered path preference at the traffic
// source.
func (e *Encoder) encodePreference(p *spec.Preference) error {
	if len(p.Paths) < 2 {
		return fmt.Errorf("synth: preference needs at least two paths")
	}
	src := p.Paths[0].First()
	dst := p.Paths[0].Last()
	for _, q := range p.Paths[1:] {
		if q.First() != src || q.Last() != dst {
			return fmt.Errorf("synth: preference paths must share source and destination (%s vs %s)", p.Paths[0], q)
		}
	}
	origin := e.net.Router(dst)
	if origin == nil || !origin.HasPrefix {
		return fmt.Errorf("synth: preference destination %q does not originate a prefix", dst)
	}
	prefix := origin.Prefix.String()
	atSrc := e.cands.at(prefix, src)
	if len(atSrc) == 0 {
		return fmt.Errorf("synth: no candidate paths from %s to %s", src, dst)
	}

	// Partition the source's candidates into preference levels; a
	// candidate matching several patterns lands in the most preferred.
	level := make(map[*candidate]int)
	byLevel := make([][]*candidate, len(p.Paths))
	for _, c := range atSrc {
		assigned := false
		for i, pat := range p.Paths {
			if matchesTrafficExact(pat, c.path) {
				level[c] = i
				byLevel[i] = append(byLevel[i], c)
				assigned = true
				break
			}
		}
		if !assigned {
			level[c] = -1
		}
	}
	if len(byLevel[0]) == 0 {
		return fmt.Errorf("synth: most preferred pattern %s matches no candidate path", p.Paths[0])
	}

	// The most preferred path must actually be selected in the
	// failure-free network.
	var top []logic.Term
	for _, c := range byLevel[0] {
		top = append(top, c.selTerm())
	}
	e.assert(logic.Or(top...))

	// Every listed path must remain configured-in (available as a
	// fallback): the preference lists the admissible paths in order,
	// so none of them may be blocked outright.
	for i := range byLevel {
		for _, c := range byLevel[i] {
			e.assert(c.fullPassTerm())
		}
	}

	// Selecting a level-i path requires all more-preferred paths to be
	// blocked by configuration (not merely unselected).
	for i := 1; i < len(byLevel); i++ {
		for _, c := range byLevel[i] {
			var higher []logic.Term
			for j := 0; j < i; j++ {
				for _, hc := range byLevel[j] {
					higher = append(higher, logic.Not(hc.fullPassTerm()))
				}
			}
			e.assert(logic.Implies(c.selTerm(), logic.And(higher...)))
		}
	}

	// The preference must be configured, not accidental: at the router
	// where a more-preferred and a less-preferred path diverge, the
	// local-preference of the preferred route must be strictly higher
	// (unless the concrete tie-break already favors it). This is what
	// makes the intent hold under failures, and what surfaces as the
	// "preference { ... }" clause in the paper's Figure 4 subspec.
	for i := 0; i < len(byLevel); i++ {
		for j := i + 1; j < len(byLevel); j++ {
			for _, hi := range byLevel[i] {
				for _, lo := range byLevel[j] {
					e.assertPreferredAtDivergence(hi, lo)
				}
			}
		}
	}

	// Unlisted paths: blocked under the NetComplete interpretation
	// (the paper's Scenario 2 ambiguity). Under AllowUnspecified —
	// interpretation (2) — they instead stay configured-in but less
	// preferred than every listed path, so they serve as last resorts.
	for _, c := range atSrc {
		if level[c] != -1 {
			continue
		}
		if e.opts.AllowUnspecified {
			e.assert(c.fullPassTerm())
			for i := range byLevel {
				for _, hc := range byLevel[i] {
					e.assertPreferredAtDivergence(hc, c)
				}
			}
		} else {
			e.assert(logic.Not(c.fullPassTerm()))
		}
	}
	return nil
}

// assertPreferredAtDivergence locates the router where the traffic
// paths of hi and lo diverge and requires hi's route to win the
// decision process there: strictly higher local-pref rank, or at least
// equal when the concrete tie-break already favors hi.
func (e *Encoder) assertPreferredAtDivergence(hi, lo *candidate) {
	ti, tj := trafficPath(hi.path), trafficPath(lo.path)
	// Longest common prefix of the traffic paths; the last common node
	// is where the routes compete.
	k := 0
	for k < len(ti) && k < len(tj) && ti[k] == tj[k] {
		k++
	}
	if k == 0 {
		return
	}
	div := ti[k-1]
	if r := e.net.Router(div); r == nil || r.Role != topology.Internal {
		// Divergence outside the managed network cannot be configured;
		// the selection constraints still apply, but no local-pref
		// obligation can be imposed.
		return
	}
	chi := e.candidateAt(hi, div)
	clo := e.candidateAt(lo, div)
	if chi == nil || clo == nil || chi == clo {
		return
	}
	e.assert(betterOrEqual(chi, clo, e.net))
}

// candidateAt finds the candidate for the propagation-path prefix of c
// that ends at node (c's route as seen at an earlier hop).
func (e *Encoder) candidateAt(c *candidate, node string) *candidate {
	for cur := c; cur != nil; cur = cur.parent {
		if cur.node() == node {
			return cur
		}
	}
	return nil
}

func sortedNodes(byNode map[string][]*candidate) []string {
	out := make([]string, 0, len(byNode))
	for n := range byNode {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
