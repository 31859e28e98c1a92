package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// The hash-consing invariant: within one interner, structural equality
// and pointer identity coincide. The constructors intern through the
// package-default table, so any two terms built independently but with
// the same structure must be the same node.

func TestInternConstructorsPointerIdentity(t *testing.T) {
	build := func() Term {
		p, q := NewBoolVar("p"), NewBoolVar("q")
		m := NewIntVar("m", -8, 8)
		return And(Or(p, Not(q)), Implies(Lt(m, NewInt(3)), p), Iff(q, False))
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("structurally equal constructor-built terms are distinct pointers:\n%v", a)
	}
	if !Equal(a, b) {
		t.Fatalf("pointer-identical terms not Equal: %v", a)
	}
	// Leaves too.
	if NewInt(7) != NewInt(7) {
		t.Error("NewInt(7) not canonicalized")
	}
	if NewBoolVar("p") != NewBoolVar("p") {
		t.Error("NewBoolVar(\"p\") not canonicalized")
	}
	if NewBool(true) != True || NewBool(false) != False {
		t.Error("boolean literals not the True/False singletons")
	}
}

func TestInternParsePrintRoundTrip(t *testing.T) {
	sort := NewEnumSort("IC", "lo", "hi")
	vars := []*Var{NewBoolVar("p"), NewBoolVar("q"), NewIntVar("n", 0, 15), NewEnumVar("mode", sort)}
	p, err := NewParser(vars, []*Sort{sort})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"p & (q | !p)",
		"n < 7 => mode = hi",
		"ite(p, n, n + 1) = 3 & (mode = lo <=> q)",
	} {
		t1, err := p.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		t2, err := p.Parse(t1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", t1, err)
		}
		// Printing and reparsing must come back to the same canonical
		// node, not merely an equal one.
		if t1 != t2 {
			t.Errorf("parse->print->parse of %q lost canonicity:\n  %v\n  %v", src, t1, t2)
		}
	}
}

// TestInternAgreesWithEqualHash checks on random terms that the
// constructors' interning agrees with the structural predicates: terms
// are Equal iff pointer-identical, and Equal terms share their hash.
// The cached hash must also agree with a from-scratch recomputation.
func TestInternAgreesWithEqualHash(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		a := randBoolTerm(r, 4)
		b := randBoolTerm(r, 4)
		if Equal(a, b) != (a == b) {
			t.Logf("Equal/pointer disagreement:\n  %v\n  %v", a, b)
			return false
		}
		if Equal(a, b) && Hash(a) != Hash(b) {
			t.Logf("Equal terms with different hashes: %v", a)
			return false
		}
		if Hash(a) != computeHash(a) {
			t.Logf("cached hash differs from recomputation: %v", a)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestInternConcurrent interns the same structures from many goroutines
// into one fresh table and checks they all receive the same canonical
// pointer. Run under -race this also exercises the claim-on-insert
// publication of the cached hash and owner fields.
func TestInternConcurrent(t *testing.T) {
	in := NewInterner()
	const goroutines = 8
	const formulas = 40

	// Raw, un-interned builders (struct literals bypass the default
	// table) so every goroutine genuinely probes the shared interner.
	build := func(i int) Term {
		v := &Var{Name: fmt.Sprintf("v%d", i%5), S: Bool}
		w := &Var{Name: "w", S: Bool}
		n := &Var{Name: "n", S: Int, Lo: 0, Hi: int64(4 + i%3)}
		lit := &IntLit{Val: int64(i % 4)}
		return &Apply{Op: OpAnd, Args: []Term{
			&Apply{Op: OpOr, Args: []Term{v, &Apply{Op: OpNot, Args: []Term{w}}}},
			&Apply{Op: OpEq, Args: []Term{n, lit}},
		}}
	}

	got := make([][]Term, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]Term, formulas)
			for i := 0; i < formulas; i++ {
				out[i] = in.Intern(build(i))
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < formulas; i++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different canonical node for formula %d", g, i)
			}
		}
	}
	// Re-interning a canonical node is the identity.
	for i := 0; i < formulas; i++ {
		if in.Intern(got[0][i]) != got[0][i] {
			t.Fatalf("re-interning canonical node %d is not the identity", i)
		}
	}
}

// TestInternerIsolation checks that separate interners maintain
// separate universes: equal structure, distinct canonical nodes.
func TestInternerIsolation(t *testing.T) {
	raw := func() Term {
		v := &Var{Name: "iso_x", S: Bool}
		return &Apply{Op: OpOr, Args: []Term{v, &Apply{Op: OpNot, Args: []Term{v}}}}
	}
	in1, in2 := NewInterner(), NewInterner()
	c1 := in1.Intern(raw())
	c2 := in2.Intern(raw())
	if c1 == c2 {
		t.Fatal("separate interners share a canonical node")
	}
	if !Equal(c1, c2) {
		t.Fatal("canonical nodes of equal structure are not Equal across interners")
	}
	if Hash(c1) != Hash(c2) {
		t.Fatal("hash differs across interners for equal structure")
	}
	// Adopting a foreign canonical node re-canonicalizes without
	// mutating the original.
	c12 := in2.Intern(c1)
	if c12 != c2 {
		t.Fatal("foreign node did not canonicalize to the target interner's node")
	}
	if in1.Intern(c1) != c1 {
		t.Fatal("original node lost canonicity in its own interner")
	}
	// The True/False singletons are shared by every interner.
	if in1.Intern(&BoolLit{Val: true}) != True || in2.Intern(&BoolLit{Val: true}) != True {
		t.Fatal("BoolLit did not canonicalize to the True singleton")
	}
}

// sharedLadder builds a formula ladder with heavy structural sharing:
// f_i = (f_{i-1} & a_i) | (f_{i-1} & b_i).
func sharedLadder(depth int) Term {
	f := Term(NewBoolVar("base"))
	for i := 0; i < depth; i++ {
		a := NewBoolVar(fmt.Sprintf("a%d", i))
		b := NewBoolVar(fmt.Sprintf("b%d", i))
		f = Or(And(f, a), And(f, b))
	}
	return f
}

// BenchmarkInternLadder measures constructing the ladder through the
// interning constructors — every node is a table probe.
func BenchmarkInternLadder(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sharedLadder(12)
	}
}

// BenchmarkInternHit measures re-interning an already canonical term —
// the O(1) ownership fast path the hot paths rely on.
func BenchmarkInternHit(b *testing.B) {
	t := sharedLadder(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Intern(t) != t {
			b.Fatal("canonical term moved")
		}
	}
}

// BenchmarkEqualInterned measures Equal on large pointer-identical
// terms (the fast path) against a structurally equal term from a
// different interner (one pointer/hash discrimination, no deep walk on
// mismatch).
func BenchmarkEqualInterned(b *testing.B) {
	t1 := sharedLadder(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(t1, t1) {
			b.Fatal("not equal")
		}
	}
}
