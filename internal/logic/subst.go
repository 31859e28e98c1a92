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
		return internApply(&Apply{Op: n.Op, Args: args})
	}
	panic(fmt.Sprintf("logic: Substitute on unknown term type %T", t))
}

// SubstituteValues replaces variables with literal terms built from the
// given assignment. Variables absent from the assignment are left
// symbolic. This is how the explanation engine "concretizes" every
// device except the one under explanation.
func SubstituteValues(t Term, a Assignment) Term {
	if len(a) == 0 {
		return t
	}
	sub := make(map[string]Term, len(a))
	for name, v := range a {
		sub[name] = v.Term()
	}
	return Substitute(t, sub)
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
			return f(internApply(&Apply{Op: n.Op, Args: args}))
		}
		return f(t)
	default:
		return f(t)
	}
}
