package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Random term generation for property-based tests. Terms are generated
// over a fixed vocabulary of three bool vars, two int vars, and one
// enum var, so random assignments can always evaluate them.

var (
	qbVars = []*Var{NewBoolVar("p"), NewBoolVar("q"), NewBoolVar("r")}
	qiVars = []*Var{NewIntVar("m", -8, 8), NewIntVar("k", 0, 15)}
	qeSort = NewEnumSort("QE", "red", "green", "blue")
	qeVar  = NewEnumVar("col", qeSort)
)

// randBoolTerm generates a random boolean term of bounded depth.
func randBoolTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return qbVars[r.Intn(len(qbVars))]
		case 1:
			return NewBool(r.Intn(2) == 0)
		case 2:
			return Eq(qeVar, NewEnum(qeSort, qeSort.Values[r.Intn(3)]))
		default:
			return Lt(qiVars[r.Intn(2)], NewInt(int64(r.Intn(17)-8)))
		}
	}
	switch r.Intn(7) {
	case 0:
		return And(randBoolTerm(r, depth-1), randBoolTerm(r, depth-1))
	case 1:
		return Or(randBoolTerm(r, depth-1), randBoolTerm(r, depth-1))
	case 2:
		return Not(randBoolTerm(r, depth-1))
	case 3:
		return Implies(randBoolTerm(r, depth-1), randBoolTerm(r, depth-1))
	case 4:
		return Iff(randBoolTerm(r, depth-1), randBoolTerm(r, depth-1))
	case 5:
		return Ite(randBoolTerm(r, depth-1), randBoolTerm(r, depth-1), randBoolTerm(r, depth-1))
	default:
		return randBoolTerm(r, 0)
	}
}

// randAssignment assigns every vocabulary variable a random in-domain
// value.
func randAssignment(r *rand.Rand) Assignment {
	a := Assignment{}
	for _, v := range qbVars {
		a[v.Name] = BoolValue(r.Intn(2) == 0)
	}
	for _, v := range qiVars {
		a[v.Name] = IntValue(v.Lo + r.Int63n(v.Hi-v.Lo+1))
	}
	a[qeVar.Name] = EnumValue(qeSort, qeSort.Values[r.Intn(3)])
	return a
}

// Property: Equal terms hash equally, and Equal is reflexive under Map
// identity.
func TestQuickHashConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randBoolTerm(r, 4)
		b := Map(a, func(u Term) Term { return u })
		return Equal(a, b) && Hash(a) == Hash(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: substitution of a variable by its assigned value does not
// change the evaluation result.
func TestQuickSubstitutionPreservesEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randBoolTerm(r, 4)
		env := randAssignment(r)
		want, err := EvalBool(term, env)
		if err != nil {
			return false
		}
		// Concretize one random variable.
		name := qbVars[r.Intn(len(qbVars))].Name
		partial := Substitute(term, map[string]Term{name: env[name].Term()})
		got, err := EvalBool(partial, env)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: folding under a partial assignment preserves evaluation,
// and folding under a full one leaves the term's value as a literal.
func TestQuickFoldPreservesEval(t *testing.T) {
	all := append(append([]*Var{qeVar}, qbVars...), qiVars...)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randBoolTerm(r, 4)
		env := randAssignment(r)
		want, err := EvalBool(term, env)
		if err != nil {
			return false
		}
		partial, full := map[Term]Term{}, map[Term]Term{}
		for _, v := range all {
			full[v] = env[v.Name].Term()
			if r.Intn(2) == 0 {
				partial[v] = full[v]
			}
		}
		got, err := EvalBool(Fold(term, partial), env)
		return err == nil && got == want && Fold(term, full) == NewBool(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Conjuncts preserves meaning — the conjunction of the parts
// evaluates like the whole.
func TestQuickConjunctsPreserveEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := And(randBoolTerm(r, 3), randBoolTerm(r, 3), randBoolTerm(r, 3))
		env := randAssignment(r)
		want, err := EvalBool(term, env)
		if err != nil {
			return false
		}
		got := true
		for _, c := range Conjuncts(term) {
			b, err := EvalBool(c, env)
			if err != nil {
				return false
			}
			got = got && b
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Size and Depth are positive and Size >= Depth.
func TestQuickSizeDepthSanity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randBoolTerm(r, 5)
		s, d := Size(term), Depth(term)
		return s >= 1 && d >= 1 && s >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
