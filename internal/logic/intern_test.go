package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// The hash-consing invariant: among canonical terms, structural
// equality and pointer identity coincide. The constructors intern
// through the process table, so any two terms built independently but
// with the same structure must be the same node.

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
	if Intern(&BoolLit{Val: true}) != True || Intern(&BoolLit{Val: false}) != False {
		t.Error("hand-built BoolLit did not canonicalize to a singleton")
	}
	// A hand-built copy of a canonical term interns to the canonical
	// node and stays hand-built: a node is canonical exactly when its
	// hash is cached.
	p := NewBoolVar("p")
	want := And(p, Not(p))
	rawVar := &Var{Name: "p", S: Bool}
	raw := &Apply{Op: OpAnd, Args: []Term{p, Not(p)}}
	if Intern(rawVar) != p || Intern(raw) != want {
		t.Error("hand-built copy did not intern to the constructor-built node")
	}
	if cachedHash(rawVar) != 0 || cachedHash(raw) != 0 {
		t.Error("interning a duplicate claimed the hand-built node")
	}
	if !Equal(raw, want) || Hash(raw) != Hash(want) {
		t.Error("hand-built copy not Equal to, or hashed unlike, its canonical node")
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
// through the process table and checks they all receive the same
// canonical pointer. Run under -race this also exercises the
// claim-on-insert publication of the cached hash and variable
// signature.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	const formulas = 40

	// Raw, un-interned builders (struct literals bypass the table) over
	// names no other test uses, so the goroutines race to insert every
	// node the first time the test runs.
	build := func(i int) Term {
		v := &Var{Name: fmt.Sprintf("conc_v%d", i%5), S: Bool}
		w := &Var{Name: "conc_w", S: Bool}
		n := &Var{Name: "conc_n", S: Int, Lo: 0, Hi: int64(4 + i%3)}
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
				out[i] = Intern(build(i))
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
		if Intern(got[0][i]) != got[0][i] {
			t.Fatalf("re-interning canonical node %d is not the identity", i)
		}
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
// terms, the fast path every canonical comparison takes.
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
