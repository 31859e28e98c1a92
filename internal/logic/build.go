package logic

import "fmt"

// The constructors in this file are deliberately "dumb": they validate
// sorts and arities but perform no simplification beyond trivial
// zero/one-argument collapsing of the n-ary connectives. Simplification
// is the job of internal/rewrite — keeping construction and rewriting
// separate lets the explanation pipeline measure how much the rewrite
// rules actually reduce a seed specification, which is one of the
// paper's reported results.
//
// Every constructor routes its node through the process table (see
// intern.go), so structurally equal terms are pointer-identical and
// carry their structural hash from birth.

// NewVar creates a variable of the given sort. For integer variables
// use NewIntVar so the domain is recorded.
func NewVar(name string, s *Sort) *Var {
	if name == "" {
		panic("logic: variable must have a name")
	}
	if s == nil {
		panic(fmt.Sprintf("logic: variable %q must have a sort", name))
	}
	if s.Kind == KindInt {
		panic(fmt.Sprintf("logic: use NewIntVar for integer variable %q", name))
	}
	return Intern(&Var{Name: name, S: s}).(*Var)
}

// NewBoolVar creates a boolean variable.
func NewBoolVar(name string) *Var { return NewVar(name, Bool) }

// NewEnumVar creates a variable of an enumeration sort.
func NewEnumVar(name string, s *Sort) *Var {
	if !s.IsEnum() {
		panic(fmt.Sprintf("logic: NewEnumVar %q: sort %v is not an enum", name, s))
	}
	return NewVar(name, s)
}

// NewIntVar creates an integer variable with the inclusive domain
// [lo, hi]. The finite-domain SMT layer requires every integer variable
// to have a domain.
func NewIntVar(name string, lo, hi int64) *Var {
	if name == "" {
		panic("logic: variable must have a name")
	}
	if lo > hi {
		panic(fmt.Sprintf("logic: integer variable %q has empty domain [%d,%d]", name, lo, hi))
	}
	return Intern(&Var{Name: name, S: Int, Lo: lo, Hi: hi}).(*Var)
}

// NewBool returns the boolean literal for v (one of the shared True or
// False nodes).
func NewBool(v bool) *BoolLit {
	if v {
		return True
	}
	return False
}

// NewInt returns an integer literal.
func NewInt(v int64) *IntLit { return Intern(&IntLit{Val: v}).(*IntLit) }

// NewEnum returns a literal of the enumeration sort s. It panics if val
// is not a member of s.
func NewEnum(s *Sort, val string) *EnumLit {
	if _, ok := s.ValueIndex(val); !ok {
		panic(fmt.Sprintf("logic: %q is not a value of sort %v", val, s))
	}
	return Intern(&EnumLit{S: s, Val: val}).(*EnumLit)
}

func requireBool(op Op, args ...Term) {
	for i, a := range args {
		if a == nil {
			panic(fmt.Sprintf("logic: %v: argument %d is nil", op, i))
		}
		if !a.Sort().IsBool() {
			panic(fmt.Sprintf("logic: %v: argument %d has sort %v, want Bool", op, i, a.Sort()))
		}
	}
}

func requireInt(op Op, args ...Term) {
	for i, a := range args {
		if a == nil {
			panic(fmt.Sprintf("logic: %v: argument %d is nil", op, i))
		}
		if !a.Sort().IsInt() {
			panic(fmt.Sprintf("logic: %v: argument %d has sort %v, want Int", op, i, a.Sort()))
		}
	}
}

// And builds an n-ary conjunction. And() is True; And(x) is x.
func And(args ...Term) Term {
	requireBool(OpAnd, args...)
	switch len(args) {
	case 0:
		return True
	case 1:
		return args[0]
	}
	return Intern(&Apply{Op: OpAnd, Args: args})
}

// Or builds an n-ary disjunction. Or() is False; Or(x) is x.
func Or(args ...Term) Term {
	requireBool(OpOr, args...)
	switch len(args) {
	case 0:
		return False
	case 1:
		return args[0]
	}
	return Intern(&Apply{Op: OpOr, Args: args})
}

// Not builds a negation.
func Not(a Term) Term {
	requireBool(OpNot, a)
	return Intern(&Apply{Op: OpNot, Args: []Term{a}})
}

// Implies builds an implication a => b.
func Implies(a, b Term) Term {
	requireBool(OpImplies, a, b)
	return Intern(&Apply{Op: OpImplies, Args: []Term{a, b}})
}

// Iff builds a bi-implication a <=> b.
func Iff(a, b Term) Term {
	requireBool(OpIff, a, b)
	return Intern(&Apply{Op: OpIff, Args: []Term{a, b}})
}

func requireSameSort(op Op, a, b Term) {
	if a == nil || b == nil {
		panic(fmt.Sprintf("logic: %v: nil argument", op))
	}
	if !SameSort(a.Sort(), b.Sort()) {
		panic(fmt.Sprintf("logic: %v: mismatched sorts %v and %v", op, a.Sort(), b.Sort()))
	}
}

// Eq builds an equality between two terms of the same sort.
func Eq(a, b Term) Term {
	requireSameSort(OpEq, a, b)
	return Intern(&Apply{Op: OpEq, Args: []Term{a, b}})
}

// Ne builds a disequality between two terms of the same sort.
func Ne(a, b Term) Term {
	requireSameSort(OpNe, a, b)
	return Intern(&Apply{Op: OpNe, Args: []Term{a, b}})
}

// Lt builds a < b over integers.
func Lt(a, b Term) Term {
	requireInt(OpLt, a, b)
	return Intern(&Apply{Op: OpLt, Args: []Term{a, b}})
}

// Le builds a <= b over integers.
func Le(a, b Term) Term {
	requireInt(OpLe, a, b)
	return Intern(&Apply{Op: OpLe, Args: []Term{a, b}})
}

// Gt builds a > b over integers.
func Gt(a, b Term) Term {
	requireInt(OpGt, a, b)
	return Intern(&Apply{Op: OpGt, Args: []Term{a, b}})
}

// Ge builds a >= b over integers.
func Ge(a, b Term) Term {
	requireInt(OpGe, a, b)
	return Intern(&Apply{Op: OpGe, Args: []Term{a, b}})
}

// Ite builds if cond then thn else els. The two branches must share a
// sort, which becomes the sort of the whole term.
func Ite(cond, thn, els Term) Term {
	requireBool(OpIte, cond)
	requireSameSort(OpIte, thn, els)
	return Intern(&Apply{Op: OpIte, Args: []Term{cond, thn, els}})
}

// Conjuncts flattens nested conjunctions into a list. A non-And term is
// returned as a single-element list; True yields an empty list.
func Conjuncts(t Term) []Term {
	var out []Term
	var walk func(Term)
	walk = func(u Term) {
		if IsTrue(u) {
			return
		}
		if a, ok := u.(*Apply); ok && a.Op == OpAnd {
			for _, arg := range a.Args {
				walk(arg)
			}
			return
		}
		out = append(out, u)
	}
	walk(t)
	return out
}

// Size counts the nodes of the term tree. It is used by the experiment
// harness to measure specification sizes before and after
// simplification.
func Size(t Term) int {
	switch n := t.(type) {
	case *Apply:
		s := 1
		for _, a := range n.Args {
			s += Size(a)
		}
		return s
	default:
		return 1
	}
}

// Depth returns the height of the term tree (a leaf has depth 1).
func Depth(t Term) int {
	a, ok := t.(*Apply)
	if !ok {
		return 1
	}
	max := 0
	for _, arg := range a.Args {
		if d := Depth(arg); d > max {
			max = d
		}
	}
	return max + 1
}
