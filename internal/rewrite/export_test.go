package rewrite

import (
	"fmt"

	"repro/internal/logic"
)

// NewReference returns a simplifier over the cache c whose
// conjunctions run referenceAnd, the loop the semi-naive propagation
// replaced, instead of simplifyAnd. Every other rule is shared, so the
// two must agree on results, Passes and rule fires exactly.
func NewReference(c *Cache) *Simplifier {
	s := NewShared(c)
	s.andRule = (*Simplifier).referenceAnd
	return s
}

// SameAsReference simplifies in on got and on want, a simplifier from
// NewReference, and reports the first difference between the two: the
// normal form's pointer, Passes, or the rule fires and pass depth of a
// counting run of each loop.
func SameAsReference(got, want *Simplifier, in logic.Term) error {
	if err := SameAsFullLoop(got, want, in); err != nil {
		return err
	}
	gf, gp := countFires(in, got.andRule)
	wf, wp := countFires(in, want.andRule)
	if gp != wp || gp != got.Passes {
		return fmt.Errorf("counted passes %d, whole-list loop %d, memoized %d", gp, wp, got.Passes)
	}
	for _, r := range AllRules {
		if gf[r] != wf[r] {
			return fmt.Errorf("%s fired %d times, whole-list loop %d", r, gf[r], wf[r])
		}
	}
	return nil
}

// SameAsFullLoop simplifies in on got and on want and reports the
// first difference between the two: the normal form's pointer or
// Passes. A replay (got.Ref set) counts no rule fires, so only these
// two are compared against the full loop.
func SameAsFullLoop(got, want *Simplifier, in logic.Term) error {
	g, w := got.Simplify(in), want.Simplify(in)
	if g != w {
		return fmt.Errorf("normal forms differ:\n got:  %s\n want: %s", g, w)
	}
	if got.Passes != want.Passes {
		return fmt.Errorf("Passes %d, want %d", got.Passes, want.Passes)
	}
	return nil
}

// referenceAnd is the whole-list conjunction loop: every round
// flattens and deduplicates (S4), checks complements (S6) and
// absorption (S13) over the whole operand list, substitutes every
// binding found so far into every conjunct (S14) and re-normalizes
// every conjunct, until a round's substitution changes nothing.
func (s *Simplifier) referenceAnd(a *logic.Apply) logic.Term {
	args := a.Args
	anyChange := false
	for round := 0; ; round++ {
		flat, actions, collapsed := logic.FlatAnd(args)
		if collapsed {
			s.firedN(RuleAndIdentity, actions)
			return logic.False
		}
		if actions > 0 {
			s.firedN(RuleAndIdentity, actions)
			anyChange = true
		}
		args = flat
		idx := indexTerms(args)
		for _, x := range args {
			if y, ok := negated(x); ok && idx.has(args, y) {
				s.fired(RuleComplement)
				return logic.False
			}
		}
		if filtered, fired := absorb(args, idx, logic.OpOr); fired {
			s.fired(RuleAbsorption)
			anyChange = true
			args = filtered
		}
		if round >= s.MaxPasses {
			break
		}
		subArgs, changed := referencePropagate(args)
		if !changed {
			break
		}
		s.fired(RuleEqPropagation)
		s.stack[len(s.stack)-1].rounds++
		anyChange = true
		args = make([]logic.Term, len(subArgs))
		for i, c := range subArgs {
			args[i] = s.norm(c)
		}
	}
	if !anyChange {
		return a
	}
	return logic.And(args...)
}

// referencePropagate is one whole-list S14 round: the first conjunct
// binding each name defines it, and every binding is substituted into
// every conjunct except, for its own name, the defining one. A second
// conjunct binding the same name does receive the substitution, so
// x = a & x = b collapses through a = b to false.
func referencePropagate(args []logic.Term) ([]logic.Term, bool) {
	bindings := map[string]logic.Term{}
	definer := map[string]int{}
	for i, c := range args {
		if name, val, ok := unitBinding(c); ok {
			if _, dup := bindings[name]; !dup {
				bindings[name] = val
				definer[name] = i
			}
		}
	}
	if len(bindings) == 0 {
		return args, false
	}
	changed := false
	out := make([]logic.Term, len(args))
	for i, c := range args {
		if name, _, ok := unitBinding(c); ok && definer[name] == i {
			val := bindings[name]
			delete(bindings, name)
			out[i] = logic.Substitute(c, bindings)
			bindings[name] = val
		} else {
			out[i] = logic.Substitute(c, bindings)
		}
		if out[i] != c {
			changed = true
		}
	}
	return out, changed
}

// CountRawNormalized makes every replayed root add the number of raw
// conjuncts it normalized to *n, until the returned function restores
// the previous hook.
func CountRawNormalized(n *int) (restore func()) {
	prev := rawStepHook
	rawStepHook = func(k int) { *n += k }
	return func() { rawStepHook = prev }
}
