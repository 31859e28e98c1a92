package rewrite

import (
	"slices"

	"repro/internal/logic"
)

// Rule S14 (equality propagation) runs semi-naively. A conjunct that
// pins a variable to a literal (x, !x, x = lit or lit = x) binds it;
// each round substitutes bindings into the sibling conjuncts,
// re-normalizes the conjuncts that changed and applies S4, S6 and S13
// again, until a round changes nothing. Two invariants let a round
// touch only what the round before it changed:
//
//   - No rule introduces a variable. Once a round has substituted a
//     binding, the bound name survives only in the conjunct that
//     defines it, so a round substitutes only the bindings first found
//     in the previous round, and only into the conjuncts indexed under
//     their names.
//   - The conjuncts a round leaves alone were already flat, distinct,
//     complement-free and absorption-free among themselves, so S4, S6
//     and S13 can only fire on a re-normalized conjunct or on a pair
//     that involves one. Each rule is checked from those conjuncts
//     against the kept membership index.
//
// The result, round counts and, in a counting run, rule fires are those
// of the loop that re-ran every rule over the whole operand list each
// round, which the tests keep as the reference
// (TestSimplifyMatchesReferenceLoop).

// andState is one conjunction's propagation state, kept across its
// rounds: the conjuncts in their stable slots with the indexes S4, S6
// and S13 read (slotIndex), and the variable and binding indexes S14
// reads.
type andState struct {
	slotIndex
	// vars maps a variable name to the slots whose conjunct contained
	// it when indexed. The lists only grow, so a slot on one may have
	// changed since; readers re-check. A changed conjunct keeps a
	// subset of its variables, so its slot's vars entries still cover
	// it.
	vars map[string][]int32
	// bound holds every name a round has bound; fresh lists the bindings
	// first found in the last round.
	bound map[string]struct{}
	fresh []binding

	// Per-round scratch.
	hits    []hit
	targets []target
	added   []int32
	sub     map[string]logic.Term

	// rec, when set, records the propagation as a Reference.
	rec *recorder
}

type binding struct {
	name string
	val  logic.Term
	slot int32
}

// hit pairs a slot with a fresh binding (by index) whose name it holds.
type hit struct{ slot, b int32 }

// target is a conjunct a round rewrote, by slot.
type target struct {
	slot int32
	t    logic.Term
}

// newAndState indexes a settled operand list and queues its bindings.
func newAndState(args []logic.Term) *andState {
	st := &andState{
		slotIndex: newSlotIndex(len(args)),
		vars:      make(map[string][]int32, len(args)),
		bound:     map[string]struct{}{},
		sub:       map[string]logic.Term{},
	}
	st.reset(args)
	return st
}

// propagate runs rule S14 over a conjunction's operand list, which S4,
// S6 and S13 have already settled. It returns the final list, whether
// propagation changed anything, and false if the conjunction collapsed
// to false. With rec set it records the propagation (see replay.go).
func (s *Simplifier) propagate(args []logic.Term, rec *recorder) ([]logic.Term, bool, bool) {
	if s.MaxPasses <= 0 {
		return args, false, true
	}
	// Most conjunctions bind nothing; they need no state. A recording
	// keeps the state, whose index a replay aligns with.
	binds := rec != nil
	for _, c := range args {
		if _, _, ok := unitBinding(c); ok {
			binds = true
			break
		}
	}
	if !binds {
		return args, false, true
	}
	st := newAndState(args)
	if rec != nil {
		if rec.begin(st); rec.ref.usable {
			st.rec = rec
		} else {
			rec = nil
		}
	}
	changed := false
	for round := 0; round < s.MaxPasses; round++ {
		fresh := st.fresh
		targets := st.substitute()
		if len(targets) == 0 {
			break
		}
		if rec != nil {
			rec.round(fresh, targets)
		}
		s.fired(RuleEqPropagation)
		s.stack[len(s.stack)-1].rounds++
		changed = true
		for i := range targets {
			var depth uint32
			targets[i].t, depth = s.normDepth(targets[i].t)
			if rec != nil {
				rec.normalized(i, targets[i].t, depth)
			}
		}
		if !s.settle(st, targets) {
			if rec != nil {
				rec.fail()
			}
			return nil, true, false
		}
		if rec != nil && !rec.ref.usable {
			rec, st.rec = nil, nil // resettled: nothing left to record
		}
	}
	if rec != nil {
		rec.finish(st.fresh)
	}
	if !changed {
		return args, false, true
	}
	out := make([]logic.Term, 0, len(st.index))
	for _, c := range st.args {
		if c != nil {
			out = append(out, c)
		}
	}
	return out, true, true
}

// reset indexes a settled operand list from scratch and queues its
// bindings: the first binding conjunct of each name not yet bound.
func (st *andState) reset(args []logic.Term) {
	st.slotIndex.reset(len(args))
	clear(st.vars)
	st.fresh = st.fresh[:0]
	for i, c := range args {
		p := int32(i)
		st.insert(p, c)
		st.indexVars(p, c)
		st.bind(p, c)
	}
}

// bind queues the binding conjunct c in slot p makes, if it is the
// first to bind its name.
func (st *andState) bind(p int32, c logic.Term) {
	if name, val, ok := unitBinding(c); ok {
		if _, seen := st.bound[name]; !seen {
			st.bound[name] = struct{}{}
			st.fresh = append(st.fresh, binding{name, val, p})
		}
	}
}

// indexVars lists slot p under every variable name in t, once each.
func (st *andState) indexVars(p int32, t logic.Term) {
	switch n := t.(type) {
	case *logic.Var:
		ps := st.vars[n.Name]
		if k := len(ps); k > 0 && ps[k-1] == p {
			return
		}
		st.vars[n.Name] = append(ps, p)
	case *logic.Apply:
		for _, a := range n.Args {
			st.indexVars(p, a)
		}
	}
}

// substitute applies the fresh bindings: each conjunct listed under a
// fresh name, other than that binding's defining conjunct, gets every
// fresh binding it mentions. It returns the conjuncts that changed, in
// slot order.
func (st *andState) substitute() []target {
	st.hits = st.hits[:0]
	for i, b := range st.fresh {
		for _, q := range st.vars[b.name] {
			if q != b.slot && st.args[q] != nil {
				st.hits = append(st.hits, hit{q, int32(i)})
			}
		}
	}
	slices.SortFunc(st.hits, func(a, b hit) int { return int(a.slot - b.slot) })
	st.targets = st.targets[:0]
	for i := 0; i < len(st.hits); {
		p := st.hits[i].slot
		clear(st.sub)
		for ; i < len(st.hits) && st.hits[i].slot == p; i++ {
			b := st.fresh[st.hits[i].b]
			st.sub[b.name] = b.val
		}
		if t := logic.Substitute(st.args[p], st.sub); t != st.args[p] {
			st.targets = append(st.targets, target{p, t})
		}
	}
	return st.targets
}

// settle applies S4, S6 and S13 after a round re-normalized its
// targets (in slot order), then queues the bindings the round exposed.
// It returns false if the conjunction collapsed. A target that became
// false or a conjunction settles the whole list, as the first round
// did, so flattening and the collapse's action count keep their
// first-occurrence order.
func (s *Simplifier) settle(st *andState, targets []target) bool {
	rec := st.rec
	for _, tg := range targets {
		if tg.t == logic.False || isOp(tg.t, logic.OpAnd) {
			if rec != nil {
				rec.fail()
			}
			return s.resettle(st, targets)
		}
	}

	// S4: drop true, and keep the first of two equal conjuncts.
	for _, tg := range targets {
		st.drop(tg.slot)
	}
	if rec != nil {
		rec.dropTargets(targets)
	}
	actions := 0
	st.added = st.added[:0]
	for _, tg := range targets {
		p := tg.slot
		if tg.t == logic.True {
			actions++
			if rec != nil {
				rec.outcome(outTrue, -1)
			}
			continue
		}
		q, dup := st.index[tg.t]
		if dup {
			actions++
			if q < p {
				if rec != nil {
					rec.outcome(outDupKept, q)
				}
				continue
			}
			// The kept conjunct at q is the later occurrence: this one
			// survives in its place.
			st.drop(q)
			if rec != nil {
				rec.outcome(outDupReplaced, q)
			}
		} else if rec != nil {
			rec.outcome(outAdded, -1)
		}
		st.insert(p, tg.t)
		if !dup {
			st.added = append(st.added, p)
		}
	}
	if actions > 0 {
		s.firedN(RuleAndIdentity, actions)
	}

	// S6: a new conjunct and its complement.
	for _, p := range st.added {
		x := st.args[p]
		if y, ok := negated(x); ok {
			if _, in := st.index[y]; in {
				s.fired(RuleComplement)
				return false
			}
		}
		if _, in := st.nots[x]; in {
			s.fired(RuleComplement)
			return false
		}
	}

	// S13: a new disjunction over a conjunct, or a disjunction over a
	// new conjunct. Disjunctions never hold disjunctions, so dropping
	// one cannot change what absorbs another.
	absorbed := false
	for _, p := range st.added {
		x := st.args[p]
		if x == nil {
			continue
		}
		if isOp(x, logic.OpOr) {
			for _, o := range x.(*logic.Apply).Args {
				if c, in := st.index[o]; in {
					st.drop(p)
					absorbed = true
					if rec != nil {
						rec.absorbed(p, c)
					}
					break
				}
			}
			continue
		}
		for _, q := range st.ors[x] {
			if or := st.args[q]; or != nil && isOp(or, logic.OpOr) && slices.Contains(or.(*logic.Apply).Args, x) {
				st.drop(q)
				absorbed = true
				if rec != nil {
					rec.absorbed(q, p)
				}
			}
		}
	}
	if absorbed {
		s.fired(RuleAbsorption)
	}

	// Only a new conjunct can bind a name no round has bound.
	st.fresh = st.fresh[:0]
	for _, p := range st.added {
		if c := st.args[p]; c != nil {
			if rec != nil {
				rec.binder(p, c)
			}
			st.bind(p, c)
		}
	}
	return true
}

// resettle is settle over the whole list: it applies the targets,
// re-runs S4, S6 and S13 over every conjunct and re-indexes the result.
func (s *Simplifier) resettle(st *andState, targets []target) bool {
	for _, tg := range targets {
		st.args[tg.slot] = tg.t
	}
	list := make([]logic.Term, 0, len(st.args))
	for _, c := range st.args {
		if c != nil {
			list = append(list, c)
		}
	}
	args, _, ok := s.settleAll(list)
	if !ok {
		return false
	}
	st.reset(args)
	return true
}

// negated returns y for a negation !y.
func negated(t logic.Term) (logic.Term, bool) {
	if n, ok := t.(*logic.Apply); ok && n.Op == logic.OpNot {
		return n.Args[0], true
	}
	return nil, false
}

func isOp(t logic.Term, op logic.Op) bool {
	a, ok := t.(*logic.Apply)
	return ok && a.Op == op
}
