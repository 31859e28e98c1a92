package synth

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
	"repro/internal/spec"
)

// applyMapSymbolic applies a route map to a symbolic route state,
// producing the condition under which the route passes and the state
// it has afterwards (meaningful only under the pass condition). This
// is the symbolic counterpart of config.ApplyRouteMap, with IOS
// first-match semantics: clause i applies iff its matches hold and no
// earlier clause matched; a route matching no clause is denied.
func (e *Encoder) applyMapSymbolic(c *config.Config, mapName string, st *routeState) (logic.Term, *routeState, error) {
	rm, ok := c.RouteMaps[mapName]
	if !ok {
		return nil, nil, fmt.Errorf("synth: router %s has no route-map %q", c.Router, mapName)
	}
	out := st.clone()
	var passDisjuncts []logic.Term
	noneBefore := logic.Term(logic.True)

	for _, cl := range rm.Clauses {
		matchCond, err := e.clauseMatchCond(c, cl, st)
		if err != nil {
			return nil, nil, err
		}
		applied := logic.And(noneBefore, matchCond)

		permitCond, err := e.clausePermitCond(cl)
		if err != nil {
			return nil, nil, err
		}
		passDisjuncts = append(passDisjuncts, logic.And(applied, permitCond))

		// Set lines take effect when the clause applies and permits.
		takes := logic.And(applied, permitCond)
		if err := e.applySetsSymbolic(cl, takes, out); err != nil {
			return nil, nil, err
		}
		noneBefore = logic.And(noneBefore, logic.Not(matchCond))
	}
	return logic.Or(passDisjuncts...), out, nil
}

// clauseMatchCond builds the conjunction of the clause's match lines
// over the state.
func (e *Encoder) clauseMatchCond(c *config.Config, cl *config.Clause, st *routeState) (logic.Term, error) {
	cond := logic.Term(logic.True)
	for _, m := range cl.Matches {
		var this logic.Term
		switch m.Kind {
		case config.MatchPrefixList:
			if m.ValueHole == "" {
				pl, ok := c.PrefixLists[m.PrefixList]
				if !ok {
					return nil, fmt.Errorf("synth: router %s references unknown prefix-list %q", c.Router, m.PrefixList)
				}
				this = logic.NewBool(permitsPrefix(pl, st.prefix))
			} else {
				v, err := e.holeVar(m.ValueHole, func() *logic.Var {
					return logic.NewEnumVar(m.ValueHole, e.voc().prefixSort)
				})
				if err != nil {
					return nil, err
				}
				this = logic.Eq(v, e.voc().prefixConst(st.prefix))
			}
		case config.MatchCommunity:
			if m.ValueHole == "" {
				this = st.hasComm(m.Community)
			} else {
				v, err := e.holeVar(m.ValueHole, func() *logic.Var {
					return logic.NewEnumVar(m.ValueHole, e.voc().commSort)
				})
				if err != nil {
					return nil, err
				}
				var alts []logic.Term
				for _, comm := range e.voc().communities {
					alts = append(alts, logic.And(logic.Eq(v, e.voc().commConst(comm)), st.hasComm(comm)))
				}
				this = logic.Or(alts...)
			}
		case config.MatchNextHopIs:
			if st.nextHop == "" {
				this = logic.False // origins have no learned next hop
			} else if m.ValueHole == "" {
				this = logic.NewBool(st.nextHop == m.NextHop)
			} else {
				v, err := e.holeVar(m.ValueHole, func() *logic.Var {
					return logic.NewEnumVar(m.ValueHole, e.voc().nbrSort)
				})
				if err != nil {
					return nil, err
				}
				this = logic.Eq(v, logic.NewEnum(e.voc().nbrSort, st.nextHop))
			}
		default:
			return nil, fmt.Errorf("synth: unsupported match kind %v", m.Kind)
		}
		cond = logic.And(cond, this)
	}
	return cond, nil
}

// clausePermitCond builds the condition under which the clause's
// action is permit.
func (e *Encoder) clausePermitCond(cl *config.Clause) (logic.Term, error) {
	if cl.ActionHole == "" {
		return logic.NewBool(cl.Action == config.Permit), nil
	}
	v, err := e.holeVar(cl.ActionHole, func() *logic.Var {
		return logic.NewEnumVar(cl.ActionHole, e.voc().actionSort)
	})
	if err != nil {
		return nil, err
	}
	return logic.Eq(v, logic.NewEnum(e.voc().actionSort, actionPermit)), nil
}

// applySetsSymbolic folds the clause's set lines into the state under
// the given application condition.
func (e *Encoder) applySetsSymbolic(cl *config.Clause, takes logic.Term, st *routeState) error {
	for _, s := range cl.Sets {
		switch s.Kind {
		case config.SetLocalPref:
			var val logic.Term
			if s.ParamHole == "" {
				rank, err := EncodeLP(s.LocalPref)
				if err != nil {
					return err
				}
				val = logic.NewInt(rank)
			} else {
				v, err := e.holeVar(s.ParamHole, func() *logic.Var {
					return logic.NewIntVar(s.ParamHole, 0, LPRankHi)
				})
				if err != nil {
					return err
				}
				val = v
			}
			st.lp = logic.Ite(takes, val, st.lp)

		case config.SetCommunity:
			if s.ParamHole == "" {
				st.comms[s.Community] = logic.Or(st.hasComm(s.Community), takes)
			} else {
				v, err := e.holeVar(s.ParamHole, func() *logic.Var {
					return logic.NewEnumVar(s.ParamHole, e.voc().commSort)
				})
				if err != nil {
					return err
				}
				for _, comm := range e.voc().communities {
					st.comms[comm] = logic.Or(st.hasComm(comm),
						logic.And(takes, logic.Eq(v, e.voc().commConst(comm))))
				}
			}

		case config.SetMED:
			// MED does not participate in the symbolic decision
			// process (see the package comment); concrete MED set
			// lines are accepted and ignored here. Symbolic MED
			// parameters still get a variable so explanations can
			// report them (typically as unconstrained).
			if s.ParamHole != "" {
				if _, err := e.holeVar(s.ParamHole, func() *logic.Var {
					return logic.NewIntVar(s.ParamHole, 0, LPRankHi)
				}); err != nil {
					return err
				}
			}

		case config.SetNextHopIP:
			// Cosmetic (does not affect routing outcomes) — exactly
			// the redundancy the paper's Scenario 1 uncovers. A
			// symbolic parameter is declared but never constrained,
			// so the explanation pipeline reports it as free.
			if s.ParamHole != "" {
				if _, err := e.holeVar(s.ParamHole, func() *logic.Var {
					return logic.NewEnumVar(s.ParamHole, e.voc().ipSort)
				}); err != nil {
					return err
				}
			}

		default:
			return fmt.Errorf("synth: unsupported set kind %v", s.Kind)
		}
	}
	return nil
}

// ReadKeys is the locality key of a concrete deployment's derived
// encodes: Key(router, override) digests everything an encode of the
// deployment with one router overridden (Base.Encode) reads, so two
// such encodes with equal keys are the same encoding, constraint for
// constraint. It digests every other router's config as appendRead
// renders it, the override the same way, the next-hop IP set of the
// vocabulary the encode derives (Base.deriveVocab's adjustment for
// that one router) when the override has a next-hop hole, the one
// reader of that set, and, once per set of keys, the requirements, the
// options and a caller's salt. The rest of the vocabulary, the
// community tags, is a function of the configs digested, and concrete
// next-hop lines are read by nothing else. The topology is not
// digested: keys compare only encodes over one network.
//
// NewReadKeys digests each router once, in one pass over the sorted
// names, and chains the digests from both ends, so a key leaves out
// its router's own entry at constant cost.
type ReadKeys struct {
	dep   config.Deployment
	index map[string]int
	// pre[i] chains the digests of the first i sorted routers, post[i]
	// those of the routers from the i-th on.
	pre, post [][sha256.Size]byte
	tags      tagCounts
	ips       [sha256.Size]byte // the whole deployment's next-hop IP set
	fixed     [sha256.Size]byte // requirements, options and salt
}

// NewReadKeys digests a concrete deployment for Key. salt stands for
// whatever else the caller's result depends on (the explainer passes
// its lift options).
func NewReadKeys(dep config.Deployment, reqs []spec.Requirement, opts Options, salt string) *ReadKeys {
	names := make([]string, 0, len(dep))
	for name := range dep {
		names = append(names, name)
	}
	sort.Strings(names)
	k := &ReadKeys{
		dep:   dep,
		index: make(map[string]int, len(names)),
		pre:   make([][sha256.Size]byte, len(names)+1),
		post:  make([][sha256.Size]byte, len(names)+1),
		tags:  countTags(dep),
	}
	digests := make([][sha256.Size]byte, len(names))
	var buf []byte
	for i, name := range names {
		k.index[name] = i
		buf = appendRead(buf[:0], dep[name])
		digests[i] = sha256.Sum256(buf)
	}
	for i, name := range names {
		buf = appendString(append(buf[:0], k.pre[i][:]...), name)
		k.pre[i+1] = sha256.Sum256(append(buf, digests[i][:]...))
	}
	for i := len(names) - 1; i >= 0; i-- {
		buf = appendString(buf[:0], names[i])
		buf = append(append(buf, digests[i][:]...), k.post[i+1][:]...)
		k.post[i] = sha256.Sum256(buf)
	}
	k.ips = ipsDigest(positive(k.tags.ips, nil))

	buf = appendString(buf[:0], fmt.Sprintf("%+v", opts.withDefaults()))
	for _, r := range reqs {
		buf = appendString(buf, r.String())
	}
	k.fixed = sha256.Sum256(appendString(buf, salt))
	return k
}

// Key returns the locality key of the deployment's encode with router,
// one of its configured routers, overridden by override: for a report
// section, the router's symbolized config (or its deployed config when
// it has nothing to symbolize).
func (k *ReadKeys) Key(router string, override *config.Config) string {
	i := k.index[router]
	buf := appendRead(make([]byte, 0, 1024), override)
	over := sha256.Sum256(buf)
	buf = append(append(buf[:0], k.pre[i][:]...), k.post[i+1][:]...)
	buf = appendString(buf, router)
	buf = append(append(buf, over[:]...), k.fixed[:]...)
	// The override's digest holds its holes, so whether the IP set
	// follows is unambiguous.
	if nextHopHole(override) {
		delta := tagCounts{comms: map[bgp.Community]int{}, ips: map[string]int{}}
		delta.add(k.dep[router], -1)
		delta.add(override, 1)
		ips := k.ips
		if crossesZero(k.tags.ips, delta.ips) {
			ips = ipsDigest(positive(k.tags.ips, delta.ips))
		}
		buf = append(buf, ips[:]...)
	}
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

// nextHopHole reports whether c has a next-hop set line with a hole.
func nextHopHole(c *config.Config) bool {
	for _, rm := range c.RouteMaps {
		for _, cl := range rm.Clauses {
			for _, s := range cl.Sets {
				if s.Kind == config.SetNextHopIP && s.ParamHole != "" {
					return true
				}
			}
		}
	}
	return false
}

// ipsDigest digests a next-hop IP set.
func ipsDigest(ips []string) [sha256.Size]byte {
	sort.Strings(ips)
	var buf []byte
	for _, ip := range ips {
		buf = appendString(buf, ip)
	}
	return sha256.Sum256(buf)
}

// appendRead appends what an encoder reads of a config: the router's
// name, its neighbor bindings, its prefix lists and its route maps,
// each field rendered by value, or by hole name when symbolic. The
// concrete metric and next-hop IP set lines are left out:
// applySetsSymbolic never reads them, and a next-hop IP reaches the
// encoding only through the vocabulary's IP set, which ReadKeys
// digests separately for a next-hop hole. Strings carry their length
// and numbers a terminator, so the rendering is unambiguous.
func appendRead(b []byte, c *config.Config) []byte {
	b = appendString(b, c.Router)
	for _, n := range c.Neighbors {
		b = appendString(appendString(appendString(append(b, 'n'), n.Peer), n.ImportMap), n.ExportMap)
	}
	for _, name := range c.PrefixListNames() {
		b = appendString(append(b, 'p'), name)
		for _, en := range c.PrefixLists[name].Entries {
			b = appendInt(appendInt(append(b, 'e'), en.Seq), int(en.Action))
			b = append(en.Prefix.AppendTo(b), ' ')
		}
	}
	for _, name := range c.RouteMapNames() {
		b = appendString(append(b, 'r'), name)
		for _, cl := range c.RouteMaps[name].Clauses {
			b = appendString(appendInt(append(b, 'c'), cl.Seq), cl.ActionHole)
			if cl.ActionHole == "" {
				b = appendInt(b, int(cl.Action))
			}
			for _, m := range cl.Matches {
				b = appendString(appendInt(append(b, 'm'), int(m.Kind)), m.ValueHole)
				if m.ValueHole == "" {
					b = appendString(appendCommunity(appendString(b, m.PrefixList), m.Community), m.NextHop)
				}
			}
			for _, s := range cl.Sets {
				if s.ParamHole == "" && (s.Kind == config.SetMED || s.Kind == config.SetNextHopIP) {
					continue
				}
				b = appendString(appendInt(append(b, 's'), int(s.Kind)), s.ParamHole)
				if s.ParamHole == "" {
					b = appendCommunity(appendInt(b, s.LocalPref), s.Community)
				}
			}
		}
	}
	return b
}

// appendString appends s with its length in front.
func appendString(b []byte, s string) []byte {
	return append(appendInt(b, len(s)), s...)
}

// appendInt appends n and a terminator.
func appendInt(b []byte, n int) []byte {
	return append(strconv.AppendInt(b, int64(n), 10), ' ')
}

// appendCommunity appends a community tag's two halves.
func appendCommunity(b []byte, c bgp.Community) []byte {
	return appendInt(appendInt(b, int(c.High)), int(c.Low))
}

// permitsPrefix evaluates a concrete prefix list against a prefix
// string.
func permitsPrefix(pl *config.PrefixList, prefix string) bool {
	for _, e := range pl.Entries {
		if e.Prefix.String() == prefix {
			return e.Action == config.Permit
		}
	}
	return false
}

// edgePass walks the route state across one edge u -> v: export map at
// u, the eBGP local-pref reset on AS boundaries, then the import map
// at v. It returns the pass condition and the state as seen at v.
func (e *Encoder) edgePass(u, v string, st *routeState) (logic.Term, *routeState, error) {
	pass := logic.Term(logic.True)
	cur := st.clone()

	if cu, ok := e.config(u); ok {
		if n := cu.Neighbor(v); n != nil && n.ExportMap != "" {
			p, next, err := e.applyMapSymbolic(cu, n.ExportMap, cur)
			if err != nil {
				return nil, nil, err
			}
			pass = logic.And(pass, p)
			cur = next
		}
	}
	if e.net.Router(u).AS != e.net.Router(v).AS {
		cur.lp = logic.NewInt(lpRankDefault)
	}
	cur.nextHop = u
	if cv, ok := e.config(v); ok {
		if n := cv.Neighbor(u); n != nil && n.ImportMap != "" {
			p, next, err := e.applyMapSymbolic(cv, n.ImportMap, cur)
			if err != nil {
				return nil, nil, err
			}
			pass = logic.And(pass, p)
			cur = next
		}
	}
	return pass, cur, nil
}

// communityVocabulary exposes the encoder's community vocabulary (for
// tests).
func (e *Encoder) communityVocabulary() []bgp.Community { return e.voc().communities }
