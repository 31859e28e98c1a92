package smt

import (
	"fmt"
	"testing"

	"repro/internal/logic"
)

// sharedSubtermFormula builds a boolean formula whose subterms are
// heavily shared: a ladder f_i = (f_{i-1} & a_i) | (f_{i-1} & b_i),
// where every f_{i-1} occurs twice. Without O(1) structural sharing
// the Tseitin memo pays O(|f_{i-1}|) per probe, so encoding the ladder
// is quadratic in its depth.
func sharedSubtermFormula(depth int) logic.Term {
	f := logic.Term(logic.NewBoolVar("x0"))
	for i := 1; i <= depth; i++ {
		a := logic.NewBoolVar(fmt.Sprintf("a%d", i))
		b := logic.NewBoolVar(fmt.Sprintf("b%d", i))
		f = logic.Or(logic.And(f, a), logic.And(f, b))
	}
	return f
}

// BenchmarkEncodeSharedSubterms measures asserting a formula with
// pervasive subterm sharing — the litOf/valueListOf memo hot path.
func BenchmarkEncodeSharedSubterms(b *testing.B) {
	f := sharedSubtermFormula(14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		if err := s.Assert(f); err != nil {
			b.Fatal(err)
		}
	}
}
