package rewrite

import (
	"repro/internal/logic"
)

// DefaultMaxPasses bounds equality-propagation rounds per conjunction
// (see Simplifier.MaxPasses).
const DefaultMaxPasses = 64

// Simplifier normalizes terms under the fifteen rewrite rules with a
// single memoized bottom-up pass: every distinct canonical subterm is
// rewritten exactly once and its normal form recorded in a persistent
// cache, so repeat occurrences — within a term, across terms, and
// across queries when the cache is shared — are answered by one
// pointer-keyed lookup. This replaces the earlier pass-until-fixpoint
// driver, which re-walked the whole term every global pass.
//
// A Simplifier may be reused across terms; its normal-form cache
// persists. Each Simplify call reports Passes, read in one lookup from
// the root entry's memoized pass depth (see nfEntry). Rule fires are
// not counted on the way: only a counting run (CountFires), which the
// diagnostics that print them call, counts them.
type Simplifier struct {
	// MaxPasses bounds the number of equality-propagation rounds run
	// at any single conjunction (each round substitutes the unit
	// bindings into sibling conjuncts and re-normalizes what changed).
	// The default of 64 is far above what any seed specification in
	// the experiments needs; the bound exists so a hypothetical
	// non-terminating rule interaction degrades to a sound non-minimal
	// result instead of a hang.
	MaxPasses int
	// Passes reports 1 + the maximum number of equality-propagation
	// rounds any conjunction in the last input needed — the depth of
	// iterative work the old fixpoint driver would have spread over
	// global passes. It is memoized per cache entry, so it does not
	// depend on cache warmth.
	Passes int
	// DisableEqPropagation turns off rule S14 (equality propagation),
	// the ablation knob for the experiment that measures how much of
	// the reduction that single rule carries.
	DisableEqPropagation bool
	// Ref, when set, is the recorded root conjunction (Record) the root
	// conjunction of each input replays from its raw conjuncts instead
	// of normalizing, settling and propagating them all itself (see
	// replay.go). Replays and ReplayFallbacks report, for the last
	// input, whether its root conjunction was answered by the replay or
	// fell back to the full path (1 or 0 each).
	Ref             *Reference
	Replays         int
	ReplayFallbacks int

	// sharedCache, when non-nil, is an externally owned cache (for
	// example engine.Session's) consulted for default-configuration
	// runs. priv is the lazily built private cache used otherwise;
	// privCfg records the configuration its entries were computed
	// under, so flipping MaxPasses or DisableEqPropagation between
	// calls discards it instead of replaying stale results.
	sharedCache *Cache
	priv        *Cache
	privCfg     simpConfig

	// Per-run state: the cache in use, the stack of frames collecting
	// the rounds and pass depth of the entries being computed (top
	// receives them), and the set of terms currently being normalized
	// (cycle guard for derived terms).
	cache    *Cache
	stack    []frame
	inflight map[logic.Term]struct{}
	// root is the input's root conjunction: the input, then its rebuild
	// once its conjuncts are normalized. rec records its first step and
	// propagation during Record.
	root logic.Term
	rec  *Reference
	// count is set in a counting run only (CountFires).
	count *fireCount

	// andRule, when set, replaces simplifyAnd; the tests install the
	// whole-list loop it replaced there as their reference.
	andRule func(*Simplifier, *logic.Apply) logic.Term
}

// frame is an entry under computation: the equality-propagation rounds
// taken at its node and the deepest pass depth among the entries its
// computation read.
type frame struct{ rounds, passes uint32 }

// fireCount is a counting run's tally: the fires of each rule, and the
// most rounds any one node of the run took.
type fireCount struct {
	fires  map[RuleName]int
	rounds uint32
}

// simpConfig identifies the rewriting function a cache's entries were
// computed under; caches must not be shared across configurations.
type simpConfig struct {
	maxPasses int
	noEqProp  bool
}

var defaultConfig = simpConfig{maxPasses: DefaultMaxPasses}

// New creates a Simplifier with default settings and a private
// normal-form cache that persists across its Simplify calls.
func New() *Simplifier {
	return &Simplifier{MaxPasses: DefaultMaxPasses}
}

// NewShared creates a Simplifier whose default-configuration normal
// forms are answered from — and recorded into — the given shared
// cache. The shared cache is safe for concurrent use, so any number of
// NewShared simplifiers may run in parallel over it; each Simplifier
// itself is single-goroutine state and must not be shared.
func NewShared(c *Cache) *Simplifier {
	return &Simplifier{MaxPasses: DefaultMaxPasses, sharedCache: c}
}

// Simplify is a convenience wrapper using a fresh Simplifier.
func Simplify(t logic.Term) logic.Term { return New().Simplify(t) }

// CountFires normalizes t in a counting run: cold, on a fresh private
// cache of the default configuration, with no reference attached. It
// returns how often each rule fired over the run (rules that never
// fired are absent) and 1 + the most propagation rounds any node of
// the run took, which is the Passes every Simplify of t reports. A
// cold run normalizes each distinct term it meets once, so the counts
// depend on t alone. The diagnostics that print rule fires call it;
// the report path never counts.
func CountFires(t logic.Term) (fires map[RuleName]int, passes int) {
	return countFires(t, nil)
}

// countFires is CountFires with andRule installed.
func countFires(t logic.Term, andRule func(*Simplifier, *logic.Apply) logic.Term) (map[RuleName]int, int) {
	s := New()
	s.andRule = andRule
	s.count = &fireCount{fires: map[RuleName]int{}}
	s.Simplify(t)
	return s.count.fires, int(s.count.rounds) + 1
}

// Simplify normalizes t under the fifteen rules. The result is
// logically equivalent to t, rendered with the first-occurrence
// argument order of every surviving conjunction and disjunction
// preserved (normalization never reorders what it keeps, so reports
// print identically whether a result was computed or recalled).
func (s *Simplifier) Simplify(t logic.Term) logic.Term {
	cfg := simpConfig{maxPasses: s.MaxPasses, noEqProp: s.DisableEqPropagation}
	if s.sharedCache != nil && cfg == defaultConfig {
		s.cache = s.sharedCache
	} else {
		if s.priv == nil || s.privCfg != cfg {
			s.priv, s.privCfg = NewCache(), cfg
		}
		s.cache = s.priv
	}
	t = logic.Intern(t)
	s.root = t
	s.Replays, s.ReplayFallbacks = 0, 0
	s.inflight = make(map[logic.Term]struct{})
	s.stack = append(s.stack[:0], frame{}) // collects t's pass depth
	out := s.norm(t)
	s.Passes = int(s.stack[0].passes) + 1
	s.stack, s.inflight, s.root = s.stack[:0], nil, nil
	return out
}

// fired counts a rule firing in a counting run; outside one it does
// nothing.
func (s *Simplifier) fired(r RuleName) { s.firedN(r, 1) }

// firedN counts n firings of a rule in a counting run.
func (s *Simplifier) firedN(r RuleName, n int) {
	if s.count != nil && n > 0 {
		s.count.fires[r] += n
	}
}

// fold folds a pass depth the computation read into the top frame's.
func (s *Simplifier) fold(passes uint32) {
	if top := &s.stack[len(s.stack)-1]; passes > top.passes {
		top.passes = passes
	}
}

// norm returns the normal form of the canonical term t, consulting and
// filling the cache. Leaves are their own normal forms.
func (s *Simplifier) norm(t logic.Term) logic.Term {
	out, _ := s.normDepth(t)
	return out
}

// normDepth is norm that also returns the pass depth of t's entry (0
// for a leaf), which it folds into the top frame's.
func (s *Simplifier) normDepth(t logic.Term) (logic.Term, uint32) {
	out, e := s.normalize(t)
	if e == nil {
		return out, 0
	}
	s.fold(e.passes)
	return out, e.passes
}

// normalize returns t's normal form and its published entry (nil for a
// leaf, and for a term met again while it is being normalized),
// consulting and filling the cache. A recording recomputes the root
// conjunction even when the cache holds it.
func (s *Simplifier) normalize(t logic.Term) (logic.Term, *nfEntry) {
	a, ok := t.(*logic.Apply)
	if !ok {
		return t, nil
	}
	if s.rec == nil || t != s.root {
		if e, ok := s.cache.get(t); ok {
			return e.out, e
		}
	}
	if _, busy := s.inflight[t]; busy {
		// A derived term led back to a term still being normalized.
		// Returning it unchanged is sound (it is equivalent to itself)
		// and breaks the cycle; no entry is recorded for this path.
		return t, nil
	}
	s.inflight[t] = struct{}{}
	s.stack = append(s.stack, frame{})
	out := s.rewriteNode(a)
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	delete(s.inflight, t)
	if s.count != nil {
		s.count.rounds = max(s.count.rounds, fr.rounds)
	}
	return out, s.cache.put(t, &nfEntry{out: out, passes: max(fr.rounds, fr.passes)})
}

// rewriteNode normalizes the children of a, then applies the local
// rules of a's operator. If normalizing the children changed the node,
// the rebuilt node is itself normalized (and cached) so every rule
// only ever sees nodes whose children are in normal form.
//
// The raw root, the input's root conjunction before its first step, is
// the node under the second frame; Record records its first step there,
// and with Ref set it replays the reference (see replay.go) unless the
// replay falls back to this path.
func (s *Simplifier) rewriteNode(a *logic.Apply) logic.Term {
	if len(s.stack) == 2 && a.Op == logic.OpAnd {
		switch {
		case s.rec != nil:
			s.recordRaw(a)
		case s.Ref != nil:
			if out, ok := s.replayRoot(a); ok {
				s.Replays++
				return out
			}
			s.ReplayFallbacks++
		}
	}
	changed := false
	args := make([]logic.Term, len(a.Args))
	for i, c := range a.Args {
		args[i] = s.norm(c)
		if args[i] != c {
			changed = true
		}
	}
	if changed {
		n := logic.Intern(&logic.Apply{Op: a.Op, Args: args})
		if a == s.root {
			s.root = n
		}
		return s.norm(n)
	}
	switch a.Op {
	case logic.OpNot:
		return s.simplifyNot(a)
	case logic.OpAnd:
		return s.simplifyAnd(a)
	case logic.OpOr:
		return s.simplifyOr(a)
	case logic.OpImplies:
		return s.simplifyImplies(a)
	case logic.OpIff:
		return s.simplifyIff(a)
	case logic.OpIte:
		return s.simplifyIte(a)
	case logic.OpEq, logic.OpNe:
		return s.simplifyEq(a)
	case logic.OpLt, logic.OpLe, logic.OpGt, logic.OpGe:
		return s.simplifyCmp(a)
	}
	return a
}

func (s *Simplifier) simplifyNot(a *logic.Apply) logic.Term {
	arg := a.Args[0]
	// S3: negation of constants.
	if logic.IsTrue(arg) {
		s.fired(RuleNegConst)
		return logic.False
	}
	if logic.IsFalse(arg) {
		s.fired(RuleNegConst)
		return logic.True
	}
	inner, ok := arg.(*logic.Apply)
	if !ok {
		return a
	}
	switch inner.Op {
	case logic.OpNot:
		// S2: double negation. The inner argument is already normal.
		s.fired(RuleDoubleNeg)
		return inner.Args[0]
	case logic.OpEq:
		// S15: !(a = b) -> a != b; the derived comparison may simplify
		// further (enum complement, domain folds), so it is normalized.
		s.fired(RuleNegNormal)
		return s.norm(logic.Ne(inner.Args[0], inner.Args[1]))
	case logic.OpNe:
		s.fired(RuleNegNormal)
		return s.norm(logic.Eq(inner.Args[0], inner.Args[1]))
	case logic.OpLt:
		s.fired(RuleNegNormal)
		return s.norm(logic.Ge(inner.Args[0], inner.Args[1]))
	case logic.OpLe:
		s.fired(RuleNegNormal)
		return s.norm(logic.Gt(inner.Args[0], inner.Args[1]))
	case logic.OpGt:
		s.fired(RuleNegNormal)
		return s.norm(logic.Le(inner.Args[0], inner.Args[1]))
	case logic.OpGe:
		s.fired(RuleNegNormal)
		return s.norm(logic.Lt(inner.Args[0], inner.Args[1]))
	}
	return a
}

// simplifyAnd normalizes a conjunction whose conjuncts are already
// normal: flatten/dedup (S4), complement (S6) and absorption (S13) over
// the operand list, then equality propagation (S14), whose rounds
// re-apply the three to what each round changed (see propagate.go).
// Iteration happens only at conjunctions that need it, and substituted
// conjuncts are re-normalized through the cache.
func (s *Simplifier) simplifyAnd(a *logic.Apply) logic.Term {
	if s.andRule != nil {
		return s.andRule(s, a)
	}
	args, changed, ok := s.settleAll(a.Args)
	if !ok {
		return logic.False
	}
	var rec *recorder
	if a == s.root && s.rec != nil {
		rec = &recorder{ref: s.rec}
	}
	args, propagated, ok := s.propagate(args, rec)
	if !ok {
		return logic.False
	}
	if !changed && !propagated {
		return a
	}
	return logic.And(args...)
}

// settleAll applies S4, S6 and S13 to a whole conjunct list. It returns
// the surviving conjuncts, whether a rule changed the list, and false
// if the conjunction collapsed to false.
func (s *Simplifier) settleAll(args []logic.Term) ([]logic.Term, bool, bool) {
	// S4: flatten nested &, drop true, collapse on false, dedup.
	flat, actions, collapsed := logic.FlatAnd(args)
	if actions > 0 {
		s.firedN(RuleAndIdentity, actions)
	}
	if collapsed {
		return nil, true, false
	}
	// S6: complement law, one index probe per negated conjunct.
	idx := indexTerms(flat)
	for _, x := range flat {
		if y, ok := negated(x); ok && idx.has(flat, y) {
			s.fired(RuleComplement)
			return nil, true, false
		}
	}
	// S13: absorption — drop any disjunction conjunct containing
	// another conjunct as a disjunct.
	if filtered, fired := absorb(flat, idx, logic.OpOr); fired {
		s.fired(RuleAbsorption)
		return filtered, true, true
	}
	return flat, actions > 0, true
}

// simplifyOr is the disjunction dual of simplifyAnd (no propagation:
// S14 is a conjunction rule).
func (s *Simplifier) simplifyOr(a *logic.Apply) logic.Term {
	args := a.Args
	anyChange := false
	// S5: flatten nested |, drop false, collapse on true, dedup.
	flat, actions, collapsed := logic.FlatOr(args)
	if collapsed {
		s.firedN(RuleOrIdentity, actions)
		return logic.True
	}
	if actions > 0 {
		s.firedN(RuleOrIdentity, actions)
		anyChange = true
	}
	args = flat
	// S6: complement law.
	idx := indexTerms(args)
	for _, x := range args {
		if y, ok := negated(x); ok && idx.has(args, y) {
			s.fired(RuleComplement)
			return logic.True
		}
	}
	// S13: absorption (dual).
	if filtered, fired := absorb(args, idx, logic.OpAnd); fired {
		s.fired(RuleAbsorption)
		anyChange = true
		args = filtered
	}
	if !anyChange {
		return a
	}
	return logic.Or(args...)
}

// isComplement reports whether x and y are negations of each other
// (terms are canonical, so the inner comparison is by pointer).
func isComplement(x, y logic.Term) bool {
	if nx, ok := x.(*logic.Apply); ok && nx.Op == logic.OpNot && nx.Args[0] == y {
		return true
	}
	if ny, ok := y.(*logic.Apply); ok && ny.Op == logic.OpNot && ny.Args[0] == x {
		return true
	}
	return false
}

// absorb removes from args any term of the given inner operator that
// contains another member of args among its operands:
// for And-level (inner = Or):  a & (a | b)  ->  a
// for Or-level  (inner = And): a | (a & b)  ->  a
// idx must index args (indexTerms); each operand check is one probe
// instead of a scan over args.
func absorb(args []logic.Term, idx termIndex, inner logic.Op) ([]logic.Term, bool) {
	fired := false
	out := make([]logic.Term, 0, len(args))
	for _, cand := range args {
		app, ok := cand.(*logic.Apply)
		absorbed := false
		if ok && app.Op == inner {
			for _, operand := range app.Args {
				// operand can never be cand itself (a term cannot
				// contain itself), so probing the whole list is exact.
				if idx.has(args, operand) {
					absorbed = true
					break
				}
			}
		}
		if absorbed {
			fired = true
			continue
		}
		out = append(out, cand)
	}
	return out, fired
}

func (s *Simplifier) simplifyImplies(a *logic.Apply) logic.Term {
	l, r := a.Args[0], a.Args[1]
	switch {
	case logic.IsFalse(l), logic.IsTrue(r):
		// S7: false => a ≡ true (the rule the paper quotes); a => true ≡ true.
		s.fired(RuleImplies)
		return logic.True
	case logic.IsTrue(l):
		s.fired(RuleImplies)
		return r
	case logic.IsFalse(r):
		s.fired(RuleImplies)
		return s.norm(logic.Not(l))
	case l == r:
		s.fired(RuleImplies)
		return logic.True
	}
	return a
}

func (s *Simplifier) simplifyIff(a *logic.Apply) logic.Term {
	l, r := a.Args[0], a.Args[1]
	switch {
	case l == r:
		s.fired(RuleIff)
		return logic.True
	case logic.IsTrue(l):
		s.fired(RuleIff)
		return r
	case logic.IsTrue(r):
		s.fired(RuleIff)
		return l
	case logic.IsFalse(l):
		s.fired(RuleIff)
		return s.norm(logic.Not(r))
	case logic.IsFalse(r):
		s.fired(RuleIff)
		return s.norm(logic.Not(l))
	case isComplement(l, r):
		s.fired(RuleIff)
		return logic.False
	}
	return a
}

func (s *Simplifier) simplifyIte(a *logic.Apply) logic.Term {
	c, thn, els := a.Args[0], a.Args[1], a.Args[2]
	switch {
	case logic.IsTrue(c):
		s.fired(RuleIte)
		return thn
	case logic.IsFalse(c):
		s.fired(RuleIte)
		return els
	case thn == els:
		s.fired(RuleIte)
		return thn
	case thn.Sort().IsBool() && logic.IsTrue(thn) && logic.IsFalse(els):
		s.fired(RuleIte)
		return c
	case thn.Sort().IsBool() && logic.IsFalse(thn) && logic.IsTrue(els):
		s.fired(RuleIte)
		return s.norm(logic.Not(c))
	}
	return a
}

func (s *Simplifier) simplifyEq(a *logic.Apply) logic.Term {
	l, r := a.Args[0], a.Args[1]
	ne := a.Op == logic.OpNe
	// S10: reflexivity on arbitrary terms (canonical, so a pointer
	// comparison decides structural equality).
	if l == r {
		s.fired(RuleEqRefl)
		return logic.NewBool(!ne)
	}
	// S11: distinct literals decide the (dis)equality.
	if logic.IsLit(l) && logic.IsLit(r) {
		s.fired(RuleEqConst)
		eq := literalsEqual(l, r)
		if ne {
			eq = !eq
		}
		return logic.NewBool(eq)
	}
	// S1 adjunct: boolean equality with a constant folds to the other
	// side (x = true -> x, x = false -> !x), counted as const folding.
	if l.Sort().IsBool() {
		if logic.IsTrue(l) || logic.IsTrue(r) || logic.IsFalse(l) || logic.IsFalse(r) {
			s.fired(RuleConstFold)
			other, konst := l, r
			if logic.IsLit(l) {
				other, konst = r, l
			}
			truth := logic.IsTrue(konst)
			if ne {
				truth = !truth
			}
			if truth {
				return other
			}
			return s.norm(logic.Not(other))
		}
	}
	// S12: integer equality decided by domain disjointness.
	if decided, val := domainDecidesEq(l, r); decided {
		s.fired(RuleDomainFold)
		if ne {
			val = !val
		}
		return logic.NewBool(val)
	}
	// S12 (enum complement): over a two-valued enumeration,
	// x != v is x = v' — normalizing to the positive form lets
	// equality propagation (S14) pick the binding up.
	if ne {
		if folded := enumComplement(l, r); folded != nil {
			s.fired(RuleDomainFold)
			return folded
		}
		if folded := enumComplement(r, l); folded != nil {
			s.fired(RuleDomainFold)
			return folded
		}
	}
	return a
}

// enumComplement rewrites x != v into x = v' when x's enum sort has
// exactly two values; returns nil when not applicable.
func enumComplement(x, v logic.Term) logic.Term {
	xv, ok := x.(*logic.Var)
	if !ok || !xv.S.IsEnum() || len(xv.S.Values) != 2 {
		return nil
	}
	lit, ok := v.(*logic.EnumLit)
	if !ok {
		return nil
	}
	other := xv.S.Values[0]
	if other == lit.Val {
		other = xv.S.Values[1]
	}
	return logic.Eq(xv, logic.NewEnum(xv.S, other))
}

func literalsEqual(l, r logic.Term) bool {
	switch x := l.(type) {
	case *logic.BoolLit:
		y, ok := r.(*logic.BoolLit)
		return ok && x.Val == y.Val
	case *logic.IntLit:
		y, ok := r.(*logic.IntLit)
		return ok && x.Val == y.Val
	case *logic.EnumLit:
		y, ok := r.(*logic.EnumLit)
		return ok && x.Val == y.Val
	}
	return false
}

// domainDecidesEq reports whether an integer equality between a
// variable and a literal (or two variables) is decided purely by the
// declared domains: disjoint ranges make it false. It never returns
// decided=true with val=true, because overlap does not force equality.
func domainDecidesEq(l, r logic.Term) (decided, val bool) {
	lo1, hi1, ok1 := intRange(l)
	lo2, hi2, ok2 := intRange(r)
	if !ok1 || !ok2 {
		return false, false
	}
	if hi1 < lo2 || hi2 < lo1 {
		return true, false
	}
	return false, false
}

// intRange returns the inclusive value range of an integer term if it
// is a literal or a domain-carrying variable.
func intRange(t logic.Term) (lo, hi int64, ok bool) {
	switch n := t.(type) {
	case *logic.IntLit:
		return n.Val, n.Val, true
	case *logic.Var:
		if n.S.IsInt() && (n.Lo != 0 || n.Hi != 0) {
			return n.Lo, n.Hi, true
		}
	}
	return 0, 0, false
}

func (s *Simplifier) simplifyCmp(a *logic.Apply) logic.Term {
	l, r := a.Args[0], a.Args[1]
	// S1: fold literal comparisons.
	ll, lok := l.(*logic.IntLit)
	rl, rok := r.(*logic.IntLit)
	if lok && rok {
		s.fired(RuleConstFold)
		var v bool
		switch a.Op {
		case logic.OpLt:
			v = ll.Val < rl.Val
		case logic.OpLe:
			v = ll.Val <= rl.Val
		case logic.OpGt:
			v = ll.Val > rl.Val
		default:
			v = ll.Val >= rl.Val
		}
		return logic.NewBool(v)
	}
	// S10 analog: t < t is false, t <= t is true.
	if l == r {
		s.fired(RuleEqRefl)
		return logic.NewBool(a.Op == logic.OpLe || a.Op == logic.OpGe)
	}
	// S12: domain-decided comparisons.
	if lo1, hi1, ok1 := intRange(l); ok1 {
		if lo2, hi2, ok2 := intRange(r); ok2 {
			switch a.Op {
			case logic.OpLt:
				if hi1 < lo2 {
					s.fired(RuleDomainFold)
					return logic.True
				}
				if lo1 >= hi2 {
					s.fired(RuleDomainFold)
					return logic.False
				}
			case logic.OpLe:
				if hi1 <= lo2 {
					s.fired(RuleDomainFold)
					return logic.True
				}
				if lo1 > hi2 {
					s.fired(RuleDomainFold)
					return logic.False
				}
			case logic.OpGt:
				if lo1 > hi2 {
					s.fired(RuleDomainFold)
					return logic.True
				}
				if hi1 <= lo2 {
					s.fired(RuleDomainFold)
					return logic.False
				}
			case logic.OpGe:
				if lo1 >= hi2 {
					s.fired(RuleDomainFold)
					return logic.True
				}
				if hi1 < lo2 {
					s.fired(RuleDomainFold)
					return logic.False
				}
			}
		}
	}
	return a
}

// unitBinding recognizes conjuncts that pin a single variable to a
// literal value: x (bool), !x, x = lit, lit = x.
func unitBinding(t logic.Term) (name string, val logic.Term, ok bool) {
	switch n := t.(type) {
	case *logic.Var:
		if n.S.IsBool() {
			return n.Name, logic.True, true
		}
	case *logic.Apply:
		switch n.Op {
		case logic.OpNot:
			if v, ok := n.Args[0].(*logic.Var); ok && v.S.IsBool() {
				return v.Name, logic.False, true
			}
		case logic.OpEq:
			if v, ok := n.Args[0].(*logic.Var); ok && logic.IsLit(n.Args[1]) {
				return v.Name, n.Args[1], true
			}
			if v, ok := n.Args[1].(*logic.Var); ok && logic.IsLit(n.Args[0]) {
				return v.Name, n.Args[0], true
			}
		}
	}
	return "", nil, false
}
