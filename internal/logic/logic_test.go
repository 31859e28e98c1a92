package logic

import (
	"strings"
	"testing"
)

var actionSort = NewEnumSort("Action", "permit", "deny")

func TestNewEnumValidation(t *testing.T) {
	mustPanic(t, func() { NewEnumSort("", "a") })
	mustPanic(t, func() { NewEnumSort("E") })
	mustPanic(t, func() { NewEnumSort("E", "a", "a") })
	s := NewEnumSort("E", "a", "b", "c")
	if i, ok := s.ValueIndex("b"); !ok || i != 1 {
		t.Fatalf("ValueIndex(b) = %d, %v; want 1, true", i, ok)
	}
	if _, ok := s.ValueIndex("z"); ok {
		t.Fatal("ValueIndex(z) should not be a member")
	}
}

func TestSameSort(t *testing.T) {
	if !SameSort(Bool, Bool) || !SameSort(Int, Int) {
		t.Fatal("shared sorts must be SameSort with themselves")
	}
	if SameSort(Bool, Int) {
		t.Fatal("Bool and Int must differ")
	}
	e1 := NewEnumSort("E", "a", "b")
	e2 := NewEnumSort("E", "a", "b")
	e3 := NewEnumSort("E", "b", "a")
	if !SameSort(e1, e2) {
		t.Fatal("structurally identical enums must be SameSort")
	}
	if SameSort(e1, e3) {
		t.Fatal("enums with different value order must differ")
	}
}

func TestConstructorValidation(t *testing.T) {
	x := NewBoolVar("x")
	n := NewIntVar("n", 0, 10)
	mustPanic(t, func() { NewVar("", Bool) })
	mustPanic(t, func() { NewVar("k", Int) }) // must use NewIntVar
	mustPanic(t, func() { NewIntVar("k", 5, 4) })
	mustPanic(t, func() { NewEnumVar("k", Bool) })
	mustPanic(t, func() { NewEnum(actionSort, "nope") })
	mustPanic(t, func() { And(x, n) })
	mustPanic(t, func() { Not(n) })
	mustPanic(t, func() { Eq(x, n) })
	mustPanic(t, func() { Lt(x, x) })
	mustPanic(t, func() { Ite(n, x, x) })
	mustPanic(t, func() { Ite(x, x, n) })
}

func TestNAryCollapse(t *testing.T) {
	x := NewBoolVar("x")
	if And() != True {
		t.Fatal("And() should be True")
	}
	if Or() != False {
		t.Fatal("Or() should be False")
	}
	if And(x) != x {
		t.Fatal("And(x) should be x")
	}
	if Or(x) != x {
		t.Fatal("Or(x) should be x")
	}
}

func TestSortsOfApplications(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	n := NewIntVar("n", 0, 100)
	cases := []struct {
		t    Term
		want *Sort
	}{
		{And(x, y), Bool},
		{Or(x, y), Bool},
		{Not(x), Bool},
		{Implies(x, y), Bool},
		{Iff(x, y), Bool},
		{Eq(n, NewInt(3)), Bool},
		{Lt(n, NewInt(3)), Bool},
		{Ite(x, n, NewInt(0)), Int},
		{Ite(x, NewEnum(actionSort, "permit"), NewEnum(actionSort, "deny")), actionSort},
	}
	for _, c := range cases {
		if !SameSort(c.t.Sort(), c.want) {
			t.Errorf("%s has sort %v, want %v", c.t, c.t.Sort(), c.want)
		}
	}
}

func TestPrinting(t *testing.T) {
	x, y, z := NewBoolVar("x"), NewBoolVar("y"), NewBoolVar("z")
	n := NewIntVar("n", 0, 100)
	type printCase struct {
		t    Term
		want string
	}
	cases := []printCase{
		{Not(x), "!x"},
		{Eq(n, NewInt(5)), "n = 5"},
		{Ne(NewEnumVar("a", actionSort), NewEnum(actionSort, "deny")), "a != deny"},
		{Ite(x, NewInt(1), NewInt(0)), "ite(x, 1, 0)"},
		// Every connective and comparison under ! is parenthesized.
		{Not(And(x, y)), "!(x & y)"},
		{Not(Or(x, y)), "!(x | y)"},
		{Not(Implies(x, y)), "!(x => y)"},
		{Not(Iff(x, y)), "!(x <=> y)"},
		{Not(Not(x)), "!(!x)"},
		{Not(Lt(n, NewInt(5))), "!(n < 5)"},
		{And(Not(x), Ge(n, NewInt(5))), "!x & n >= 5"},
		// ite arguments are never parenthesized, and an ite is never
		// parenthesized as an argument.
		{Ite(Iff(x, y), Ite(Or(x, z), n, NewInt(1)), NewInt(2)), "ite(x <=> y, ite(x | z, n, 1), 2)"},
		{Lt(Ite(Implies(x, y), n, NewInt(1)), NewInt(7)), "ite(x => y, n, 1) < 7"},
		{Not(Ite(x, y, z)), "!ite(x, y, z)"},
	}
	// Each binary connective nested left (o(i(x, y), z)) and right
	// (o(x, i(y, z))) under each other: a child binding looser than its
	// parent is parenthesized, and so is an equally loose child of the
	// non-associative => and <=>.
	bin := map[string]func(a, b Term) Term{
		"&":   func(a, b Term) Term { return And(a, b) },
		"|":   func(a, b Term) Term { return Or(a, b) },
		"=>":  Implies,
		"<=>": Iff,
	}
	for _, c := range []struct{ outer, inner, left, right string }{
		{"&", "&", "x & y & z", "x & y & z"},
		{"&", "|", "(x | y) & z", "x & (y | z)"},
		{"&", "=>", "(x => y) & z", "x & (y => z)"},
		{"&", "<=>", "(x <=> y) & z", "x & (y <=> z)"},
		{"|", "&", "x & y | z", "x | y & z"},
		{"|", "|", "x | y | z", "x | y | z"},
		{"|", "=>", "(x => y) | z", "x | (y => z)"},
		{"|", "<=>", "(x <=> y) | z", "x | (y <=> z)"},
		{"=>", "&", "x & y => z", "x => y & z"},
		{"=>", "|", "x | y => z", "x => y | z"},
		{"=>", "=>", "(x => y) => z", "x => (y => z)"},
		{"=>", "<=>", "(x <=> y) => z", "x => (y <=> z)"},
		{"<=>", "&", "x & y <=> z", "x <=> y & z"},
		{"<=>", "|", "x | y <=> z", "x <=> y | z"},
		{"<=>", "=>", "x => y <=> z", "x <=> y => z"},
		{"<=>", "<=>", "(x <=> y) <=> z", "x <=> (y <=> z)"},
	} {
		o, i := bin[c.outer], bin[c.inner]
		cases = append(cases, printCase{o(i(x, y), z), c.left}, printCase{o(x, i(y, z)), c.right})
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEval(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	n := NewIntVar("n", 0, 100)
	a := NewEnumVar("act", actionSort)
	env := Assignment{
		"x":   BoolValue(true),
		"y":   BoolValue(false),
		"n":   IntValue(7),
		"act": EnumValue(actionSort, "permit"),
	}
	cases := []struct {
		t    Term
		want bool
	}{
		{And(x, Not(y)), true},
		{Or(y, y), false},
		{Implies(y, x), true},
		{Implies(x, y), false},
		{Iff(x, Not(y)), true},
		{Eq(n, NewInt(7)), true},
		{Ne(n, NewInt(7)), false},
		{Lt(n, NewInt(8)), true},
		{Le(n, NewInt(7)), true},
		{Gt(n, NewInt(7)), false},
		{Ge(n, NewInt(7)), true},
		{Eq(a, NewEnum(actionSort, "permit")), true},
		{Eq(Ite(x, NewInt(1), NewInt(0)), NewInt(1)), true},
	}
	for _, c := range cases {
		got, err := EvalBool(c.t, env)
		if err != nil {
			t.Fatalf("EvalBool(%s): %v", c.t, err)
		}
		if got != c.want {
			t.Errorf("EvalBool(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	x := NewBoolVar("x")
	n := NewIntVar("n", 0, 100)
	if _, err := Eval(x, Assignment{}); err == nil {
		t.Fatal("unassigned variable should error")
	}
	if _, err := Eval(x, Assignment{"x": IntValue(1)}); err == nil {
		t.Fatal("wrong-sorted assignment should error")
	}
	if _, err := EvalBool(n, Assignment{"n": IntValue(1)}); err == nil {
		t.Fatal("EvalBool on int term should error")
	}
	// Short-circuit still surfaces errors from unassigned later args.
	if _, err := Eval(And(x, x), Assignment{}); err == nil {
		t.Fatal("error must propagate out of And")
	}
}

func TestSubstitute(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	n := NewIntVar("n", 0, 100)
	t1 := And(x, Or(y, x))
	got := Substitute(t1, map[string]Term{"x": True})
	if got.String() != "true & (y | true)" {
		t.Fatalf("Substitute = %q", got.String())
	}
	// Simultaneous, not sequential.
	t2 := Substitute(And(x, y), map[string]Term{"x": y, "y": x})
	if t2.String() != "y & x" {
		t.Fatalf("simultaneous substitution = %q", t2.String())
	}
	// Unchanged subtrees are shared.
	t3 := Substitute(t1, map[string]Term{"z": True})
	if t3 != t1 {
		t.Fatal("substitution with irrelevant variables should return the original term")
	}
	mustPanic(t, func() { Substitute(x, map[string]Term{"x": NewInt(1)}) })
	got = Fold(And(Eq(n, NewInt(3)), y), map[Term]Term{n: NewInt(3)})
	if got != y {
		t.Fatalf("Fold = %q, want y", got.String())
	}
	if s := Fold(t1, map[Term]Term{}); s != t1 {
		t.Fatal("folding with no bindings should return the original term")
	}
}

func TestFreeVars(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	n := NewIntVar("n", 0, 100)
	t1 := And(x, Or(y, Eq(n, NewInt(1))), x)
	names := FreeVarNames(t1)
	if strings.Join(names, ",") != "n,x,y" {
		t.Fatalf("FreeVarNames = %v", names)
	}
}

func TestConjuncts(t *testing.T) {
	x, y, z := NewBoolVar("x"), NewBoolVar("y"), NewBoolVar("z")
	c := Conjuncts(And(And(x, y), z, True))
	if len(c) != 3 {
		t.Fatalf("Conjuncts = %d elements, want 3", len(c))
	}
	if len(Conjuncts(True)) != 0 {
		t.Fatal("Conjuncts(True) should be empty")
	}
	if got := Conjuncts(x); len(got) != 1 || got[0] != x {
		t.Fatal("Conjuncts of a non-And should be the term itself")
	}
}

func TestSizeDepth(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	t1 := And(x, Or(y, Not(x)))
	if got := Size(t1); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
	if Size(x) != 1 {
		t.Fatal("leaf size should be 1")
	}
}

func TestEqualAndHash(t *testing.T) {
	x1 := NewBoolVar("x")
	x2 := NewBoolVar("x")
	y := NewBoolVar("y")
	n := NewIntVar("n", 0, 5)
	a := NewEnumVar("a", actionSort)
	pairsEqual := [][2]Term{
		{x1, x2},
		{And(x1, y), And(x2, y)},
		{NewInt(3), NewInt(3)},
		{NewEnum(actionSort, "deny"), NewEnum(actionSort, "deny")},
		{Not(Eq(n, NewInt(1))), Not(Eq(n, NewInt(1)))},
		{Eq(a, NewEnum(actionSort, "permit")), Eq(a, NewEnum(actionSort, "permit"))},
	}
	for _, p := range pairsEqual {
		if !Equal(p[0], p[1]) {
			t.Errorf("Equal(%s, %s) = false", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("Hash(%s) != Hash(%s)", p[0], p[1])
		}
	}
	pairsDiff := [][2]Term{
		{x1, y},
		{And(x1, y), And(y, x1)},
		{And(x1, y), Or(x1, y)},
		{NewInt(3), NewInt(4)},
		{True, False},
		{NewEnum(actionSort, "deny"), NewEnum(actionSort, "permit")},
		{x1, True},
	}
	for _, p := range pairsDiff {
		if Equal(p[0], p[1]) {
			t.Errorf("Equal(%s, %s) = true", p[0], p[1])
		}
	}
}

func TestHashDistributes(t *testing.T) {
	// Sanity: distinct small terms do not all collide.
	terms := []Term{
		NewBoolVar("a"), NewBoolVar("b"), NewInt(1), NewInt(2),
		True, False, And(NewBoolVar("a"), NewBoolVar("b")),
		Or(NewBoolVar("a"), NewBoolVar("b")),
		NewEnum(actionSort, "permit"), NewEnum(actionSort, "deny"),
	}
	seen := map[uint64]bool{}
	collisions := 0
	for _, tm := range terms {
		h := Hash(tm)
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	if collisions > 1 {
		t.Fatalf("%d hash collisions among %d tiny terms", collisions, len(terms))
	}
}

func TestDedupTerms(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	in := []Term{x, y, NewBoolVar("x"), And(x, y), And(x, y), y}
	out := DedupTerms(in)
	if len(out) != 3 {
		t.Fatalf("DedupTerms kept %d terms, want 3", len(out))
	}
	if out[0] != x || out[1] != y {
		t.Fatal("DedupTerms must preserve first occurrences in order")
	}
}

func TestWalk(t *testing.T) {
	x, y := NewBoolVar("x"), NewBoolVar("y")
	t1 := And(x, Or(y, Not(x)))
	count := 0
	Walk(t1, func(Term) bool { count++; return true })
	if count != 6 {
		t.Fatalf("Walk visited %d nodes, want 6", count)
	}
	// Pruned walk stops at the Or.
	count = 0
	Walk(t1, func(u Term) bool {
		count++
		a, ok := u.(*Apply)
		return !ok || a.Op != OpOr
	})
	if count != 3 {
		t.Fatalf("pruned Walk visited %d nodes, want 3", count)
	}
}

func TestValueHelpers(t *testing.T) {
	v := EnumValue(actionSort, "deny")
	if v.String() != "deny" {
		t.Fatalf("Value.String = %q", v.String())
	}
	if !v.Equal(EnumValue(actionSort, "deny")) || v.Equal(EnumValue(actionSort, "permit")) {
		t.Fatal("Value.Equal mismatch")
	}
	if v.Equal(IntValue(0)) {
		t.Fatal("values of different sorts must differ")
	}
	if v.Term().String() != "deny" {
		t.Fatal("Value.Term round trip failed")
	}
	if BoolValue(true).String() != "true" || BoolValue(false).String() != "false" {
		t.Fatal("BoolValue.String mismatch")
	}
	if IntValue(42).Term().String() != "42" {
		t.Fatal("IntValue.Term mismatch")
	}
	mustPanic(t, func() { EnumValue(actionSort, "nope") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
