package logic

import "fmt"

// Op enumerates the non-leaf operators of the term language.
type Op int

const (
	// OpAnd is n-ary conjunction (Bool... -> Bool).
	OpAnd Op = iota
	// OpOr is n-ary disjunction (Bool... -> Bool).
	OpOr
	// OpNot is negation (Bool -> Bool).
	OpNot
	// OpImplies is implication (Bool, Bool -> Bool).
	OpImplies
	// OpIff is bi-implication (Bool, Bool -> Bool).
	OpIff
	// OpEq is equality over any single sort (T, T -> Bool).
	OpEq
	// OpNe is disequality over any single sort (T, T -> Bool).
	OpNe
	// OpLt is strict less-than over integers (Int, Int -> Bool).
	OpLt
	// OpLe is less-or-equal over integers (Int, Int -> Bool).
	OpLe
	// OpGt is strict greater-than over integers (Int, Int -> Bool).
	OpGt
	// OpGe is greater-or-equal over integers (Int, Int -> Bool).
	OpGe
	// OpIte is if-then-else (Bool, T, T -> T).
	OpIte
)

var opNames = [...]string{
	OpAnd:     "and",
	OpOr:      "or",
	OpNot:     "not",
	OpImplies: "=>",
	OpIff:     "<=>",
	OpEq:      "=",
	OpNe:      "!=",
	OpLt:      "<",
	OpLe:      "<=",
	OpGt:      ">",
	OpGe:      ">=",
	OpIte:     "ite",
}

// String returns the operator's surface syntax.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Term is an immutable node of the term language. The concrete node
// types are Var, BoolLit, IntLit, EnumLit, and Apply. Terms form trees;
// sharing subterms is allowed (and encouraged) because terms are never
// mutated.
type Term interface {
	// Sort returns the term's sort. It panics on ill-sorted terms,
	// which the constructors in build.go prevent from being created.
	Sort() *Sort
	// String renders the term in the package's infix surface syntax
	// (see print.go).
	String() string

	isTerm()
}

// Var is a symbolic variable. Variables are identified by name; two Var
// nodes with the same name and sort are the same variable. Integer
// variables carry an inclusive domain [Lo, Hi] so the finite-domain
// solver knows their range; for Bool and Enum variables the domain
// fields are ignored.
type Var struct {
	Name string
	S    *Sort
	// Lo and Hi bound integer variables inclusively. They are only
	// meaningful when S is the Int sort.
	Lo, Hi int64

	hash uint64
	vsig uint64
}

// Sort implements Term.
func (v *Var) Sort() *Sort { return v.S }
func (v *Var) isTerm()     {}

// BoolLit is a boolean constant.
type BoolLit struct {
	Val bool

	hash uint64
}

// Sort implements Term.
func (b *BoolLit) Sort() *Sort { return Bool }
func (b *BoolLit) isTerm()     {}

// True and False are the shared boolean constants: the only two
// canonical BoolLit nodes in the process. Intern canonicalizes boolean
// literals to these singletons, so pointer comparison against them is
// always safe.
var (
	True  = &BoolLit{Val: true, hash: hashBool(true)}
	False = &BoolLit{Val: false, hash: hashBool(false)}
)

// IntLit is an integer constant.
type IntLit struct {
	Val int64

	hash uint64
}

// Sort implements Term.
func (i *IntLit) Sort() *Sort { return Int }
func (i *IntLit) isTerm()     {}

// EnumLit is a constant of an enumeration sort.
type EnumLit struct {
	S   *Sort
	Val string

	hash uint64
}

// Sort implements Term.
func (e *EnumLit) Sort() *Sort { return e.S }
func (e *EnumLit) isTerm()     {}

// Apply is an operator applied to argument terms. The constructors in
// build.go validate arities and sorts, so a well-formed program never
// constructs an ill-sorted Apply by hand.
type Apply struct {
	Op   Op
	Args []Term

	hash uint64
	vsig uint64
}

// Sort implements Term.
func (a *Apply) Sort() *Sort {
	switch a.Op {
	case OpAnd, OpOr, OpNot, OpImplies, OpIff, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return Bool
	case OpIte:
		return a.Args[1].Sort()
	}
	panic(fmt.Sprintf("logic: Apply with unknown op %v", a.Op))
}

func (a *Apply) isTerm() {}

// IsTrue reports whether t is the literal true.
func IsTrue(t Term) bool {
	b, ok := t.(*BoolLit)
	return ok && b.Val
}

// IsFalse reports whether t is the literal false.
func IsFalse(t Term) bool {
	b, ok := t.(*BoolLit)
	return ok && !b.Val
}

// IsLit reports whether t is a constant (boolean, integer, or enum
// literal).
func IsLit(t Term) bool {
	switch t.(type) {
	case *BoolLit, *IntLit, *EnumLit:
		return true
	}
	return false
}
