package logic

import (
	"fmt"
	"sort"
)

// Substitute replaces every free occurrence of the variables named in
// sub with the corresponding replacement terms, returning a new term.
// Replacement terms must have the same sort as the variable they
// replace; Substitute panics otherwise, because a sort mismatch is
// always a programming error in this codebase.
//
// Substitution is simultaneous: replacements are not themselves
// re-substituted, so Substitute(x, {x: y, y: z}) yields y, not z.
//
// The walk is pruned by variable signatures: a subterm whose signature
// shares no bit with the substituted names provably contains none of
// them and is returned as is. Signatures are 64-bit Bloom filters, so
// the pruning weakens as sub grows: once its names cover most of the
// 64 bits, nearly every subterm is walked. A caller applying many
// bindings to many terms (equality propagation in the rewrite package)
// does better to find the terms that contain each name and pass each
// term only the bindings it mentions. Nothing is allocated unless a
// replacement happens.
func Substitute(t Term, sub map[string]Term) Term {
	if len(sub) == 0 {
		return t
	}
	var mask uint64
	for name := range sub {
		mask |= varBit(name)
	}
	return substitute(t, sub, mask)
}

func substitute(t Term, sub map[string]Term, mask uint64) Term {
	if sig, ok := varSigFast(t); ok && sig&mask == 0 {
		return t
	}
	switch n := t.(type) {
	case *Var:
		r, ok := sub[n.Name]
		if !ok {
			return t
		}
		if !SameSort(r.Sort(), n.S) {
			panic(fmt.Sprintf("logic: substituting %v-sorted term for %v-sorted variable %q", r.Sort(), n.S, n.Name))
		}
		return r
	case *BoolLit, *IntLit, *EnumLit:
		return t
	case *Apply:
		var args []Term // copied on the first changed argument
		for i, a := range n.Args {
			r := substitute(a, sub, mask)
			if r != a && args == nil {
				args = make([]Term, len(n.Args))
				copy(args, n.Args[:i])
			}
			if args != nil {
				args[i] = r
			}
		}
		if args == nil {
			return t
		}
		return Intern(&Apply{Op: n.Op, Args: args})
	}
	panic(fmt.Sprintf("logic: Substitute on unknown term type %T", t))
}

// Fold partially evaluates t. memo maps terms to their folded form:
// seed it with a literal for each variable to replace; variables with
// no entry stay symbolic. An operator whose arguments all fold to
// literals is evaluated, and a connective or ite that one literal
// argument decides is reduced (x & false is false, x & true is x,
// ite(true, a, b) is a). Fold records every Apply node it visits in
// memo, so the conjuncts of one formula folded through one memo fold
// their shared subterms once.
func Fold(t Term, memo map[Term]Term) Term {
	if r, ok := memo[t]; ok {
		return r
	}
	a, ok := t.(*Apply)
	if !ok {
		return t
	}
	var args []Term // copied on the first changed argument
	lits := true
	for i, x := range a.Args {
		f := Fold(x, memo)
		if f != x && args == nil {
			args = make([]Term, len(a.Args))
			copy(args, a.Args[:i])
		}
		if args != nil {
			args[i] = f
		}
		lits = lits && IsLit(f)
	}
	r := t
	switch {
	case lits:
		if args == nil {
			args = a.Args
		}
		v, err := evalApply(&Apply{Op: a.Op, Args: args}, nil)
		if err != nil {
			panic(fmt.Sprintf("logic: folding %v: %v", a.Op, err))
		}
		r = v.Term()
	case args != nil:
		r = foldApply(a.Op, args)
	}
	memo[t] = r
	return r
}

// foldApply rebuilds an application whose arguments are folded and not
// all literals, reducing it where one literal argument decides it.
func foldApply(op Op, args []Term) Term {
	switch op {
	case OpAnd, OpOr:
		absorb := op == OpOr // true absorbs a disjunction, false a conjunction
		kept := args[:0]
		for _, x := range args {
			if b, ok := x.(*BoolLit); !ok {
				kept = append(kept, x)
			} else if b.Val == absorb {
				return NewBool(absorb)
			}
		}
		if op == OpAnd {
			return And(kept...)
		}
		return Or(kept...)
	case OpImplies:
		switch l, r := args[0], args[1]; {
		case IsFalse(l) || IsTrue(r):
			return True
		case IsTrue(l):
			return r
		case IsFalse(r):
			return Not(l)
		}
	case OpIff:
		l, r := args[0], args[1]
		if IsLit(r) {
			l, r = r, l
		}
		if b, ok := l.(*BoolLit); ok {
			if b.Val {
				return r
			}
			return Not(r)
		}
	case OpIte:
		if b, ok := args[0].(*BoolLit); ok {
			if b.Val {
				return args[1]
			}
			return args[2]
		}
		if args[1] == args[2] {
			return args[1]
		}
	}
	return Intern(&Apply{Op: op, Args: args})
}

// FreeVars returns the set of variables occurring in t, keyed by name.
func FreeVars(t Term) map[string]*Var {
	out := make(map[string]*Var)
	collectVars(t, out)
	return out
}

func collectVars(t Term, out map[string]*Var) {
	switch n := t.(type) {
	case *Var:
		out[n.Name] = n
	case *Apply:
		for _, a := range n.Args {
			collectVars(a, out)
		}
	}
}

// FreeVarNames returns the sorted names of the variables occurring in
// t. Sorting makes output deterministic for tests and reports.
func FreeVarNames(t Term) []string {
	vars := FreeVars(t)
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ContainsVar reports whether the variable named name occurs in t.
func ContainsVar(t Term, name string) bool {
	switch n := t.(type) {
	case *Var:
		return n.Name == name
	case *Apply:
		for _, a := range n.Args {
			if ContainsVar(a, name) {
				return true
			}
		}
	}
	return false
}

// Walk visits every node of t in pre-order, calling f. If f returns
// false the node's children are skipped.
func Walk(t Term, f func(Term) bool) {
	if !f(t) {
		return
	}
	if a, ok := t.(*Apply); ok {
		for _, arg := range a.Args {
			Walk(arg, f)
		}
	}
}

// Map rebuilds t bottom-up, applying f to every node after its children
// have been rebuilt. f receives a node whose children are already
// mapped and returns its replacement. Map is the workhorse of the
// rewrite engine.
func Map(t Term, f func(Term) Term) Term {
	switch n := t.(type) {
	case *Apply:
		changed := false
		args := make([]Term, len(n.Args))
		for i, a := range n.Args {
			args[i] = Map(a, f)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			// Intern the rebuilt node so f sees a canonical term (and
			// memoizing callers can key on it by pointer).
			return f(Intern(&Apply{Op: n.Op, Args: args}))
		}
		return f(t)
	default:
		return f(t)
	}
}
