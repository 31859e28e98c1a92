package synth

import (
	"fmt"

	"repro/internal/bgp"
	"repro/internal/config"
	"repro/internal/logic"
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
