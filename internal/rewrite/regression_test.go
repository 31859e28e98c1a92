package rewrite

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// Regression and shape tests for simplifications the explanation
// pipeline depends on.

func TestEnumComplementNormalization(t *testing.T) {
	// Over a two-valued enum, != normalizes to = of the other value so
	// equality propagation can bind it (the Figure 6c shape).
	act := logic.NewEnumSort("RAct", "permit", "deny")
	v := logic.NewEnumVar("a", act)
	got := Simplify(logic.Not(logic.Eq(v, logic.NewEnum(act, "permit"))))
	if got.String() != "a = deny" {
		t.Fatalf("got %s, want a = deny", got)
	}
	// Three-valued enums stay as disequalities.
	tri := logic.NewEnumSort("Tri", "a", "b", "c")
	w := logic.NewEnumVar("w", tri)
	got = Simplify(logic.Not(logic.Eq(w, logic.NewEnum(tri, "a"))))
	if got.String() != "w != a" {
		t.Fatalf("got %s, want w != a", got)
	}
}

func TestFig6cShape(t *testing.T) {
	// The paper's Figure 6c: ((Var_Attr = Next_Hop & Var_Val = v) |
	// Var_Action = deny)-like constraints survive as-is — simplification
	// must not destroy irreducible disjunctions over hole variables.
	act := logic.NewEnumSort("Act2", "permit", "deny")
	attr := logic.NewEnumSort("Attr", "next_hop", "community")
	vAttr := logic.NewEnumVar("Var_Attr", attr)
	vAct := logic.NewEnumVar("Var_Action", act)
	c := logic.Or(
		logic.Eq(vAttr, logic.NewEnum(attr, "next_hop")),
		logic.Eq(vAct, logic.NewEnum(act, "deny")),
	)
	got := Simplify(c)
	if !logic.Equal(got, c) {
		t.Fatalf("irreducible Fig6c constraint changed: %s", got)
	}
}

func TestEqPropagationThroughIte(t *testing.T) {
	// x = 3 & (ite(x = 3, a, b)) -> x = 3 & a.
	x := logic.NewIntVar("x", 0, 9)
	a, b := logic.NewBoolVar("a"), logic.NewBoolVar("b")
	in := logic.And(
		logic.Eq(x, logic.NewInt(3)),
		logic.Ite(logic.Eq(x, logic.NewInt(3)), a, b),
	)
	got := Simplify(in)
	if got.String() != "x = 3 & a" {
		t.Fatalf("got %s", got)
	}
}

func TestZeroMaxPassesDisablesS14(t *testing.T) {
	x := logic.NewIntVar("x", 0, 9)
	in := logic.And(
		logic.Eq(x, logic.NewInt(3)),
		logic.Lt(x, logic.NewInt(5)),
	)
	s := New()
	s.MaxPasses = 0
	got := s.Simplify(in)
	if !strings.Contains(got.String(), "x < 5") {
		t.Fatalf("S14 disabled but propagation still happened: %s", got)
	}
	if s.Passes != 1 {
		t.Fatalf("S14 disabled but a conjunction took %d propagation rounds", s.Passes-1)
	}
}

func TestMaxPassesBound(t *testing.T) {
	// A chain x1 = x2 & x2 = x3 & ... & xn = 0 needs several passes to
	// fully collapse; a single pass leaves residue but stays sound.
	vars := make([]*logic.Var, 6)
	for i := range vars {
		vars[i] = logic.NewIntVar(varName(i), 0, 9)
	}
	conjuncts := []logic.Term{logic.Eq(vars[len(vars)-1], logic.NewInt(0))}
	for i := len(vars) - 1; i > 0; i-- {
		conjuncts = append(conjuncts, logic.Eq(vars[i-1], vars[i]))
	}
	in := logic.And(conjuncts...)

	one := New()
	one.MaxPasses = 1
	r1 := one.Simplify(in)

	full := New()
	rf := full.Simplify(in)

	if logic.Size(rf) > logic.Size(r1) {
		t.Fatalf("fixpoint (%d) larger than single pass (%d)", logic.Size(rf), logic.Size(r1))
	}
	if full.Passes <= 1 {
		t.Fatalf("chain should need multiple passes, took %d", full.Passes)
	}
	// Both remain equivalent to the input (spot-check one assignment).
	env := logic.Assignment{}
	for _, v := range vars {
		env[v.Name] = logic.IntValue(0)
	}
	for _, term := range []logic.Term{in, r1, rf} {
		ok, err := logic.EvalBool(term, env)
		if err != nil || !ok {
			t.Fatalf("all-zero assignment must satisfy: %v %v", ok, err)
		}
	}
}

func varName(i int) string {
	return string(rune('p'+i)) + "v"
}

func TestAbsorptionNested(t *testing.T) {
	a, b, c := logic.NewBoolVar("a"), logic.NewBoolVar("b"), logic.NewBoolVar("c")
	// a & (a | b) & (a | c) -> a.
	got := Simplify(logic.And(a, logic.Or(a, b), logic.Or(a, c)))
	if got.String() != "a" {
		t.Fatalf("got %s", got)
	}
	// (a & b) | a | c -> a | c.
	got = Simplify(logic.Or(logic.And(a, b), a, c))
	if got.String() != "a | c" {
		t.Fatalf("got %s", got)
	}
}

func TestSimplifierReuseKeepsCache(t *testing.T) {
	s := New()
	x := logic.NewBoolVar("x")
	in := logic.Or(x, logic.Not(x))
	first := s.Simplify(in)
	misses := s.cache.Misses()
	if again := s.Simplify(in); again != first || s.cache.Misses() != misses {
		t.Fatal("a reused simplifier should answer a repeat term from its cache")
	}
}
