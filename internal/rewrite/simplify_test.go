package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/sat"
	"repro/internal/smt"
)

var actSort = logic.NewEnumSort("Act", "permit", "deny")

// Simplify normalizes t on a fresh Simplifier.
func Simplify(t logic.Term) logic.Term { return New().Simplify(t) }

func simp(t *testing.T, in logic.Term) logic.Term {
	t.Helper()
	return Simplify(in)
}

func wantStr(t *testing.T, in logic.Term, want string) {
	t.Helper()
	got := Simplify(in)
	if got.String() != want {
		t.Errorf("Simplify(%s) = %s, want %s", in, got, want)
	}
}

func TestPaperQuotedRules(t *testing.T) {
	a := logic.NewBoolVar("a")
	// The two rules quoted in the paper (Section 3):
	// False -> a == True
	wantStr(t, logic.Implies(logic.False, a), "true")
	// a \/ !a == True
	wantStr(t, logic.Or(a, logic.Not(a)), "true")
}

func TestConstFold(t *testing.T) {
	wantStr(t, logic.Eq(logic.NewInt(3), logic.NewInt(3)), "true")
	wantStr(t, logic.Lt(logic.NewInt(2), logic.NewInt(1)), "false")
	wantStr(t, logic.Ge(logic.NewInt(2), logic.NewInt(2)), "true")
	wantStr(t, logic.Eq(logic.NewEnum(actSort, "permit"), logic.NewEnum(actSort, "deny")), "false")
	wantStr(t, logic.Ne(logic.NewEnum(actSort, "permit"), logic.NewEnum(actSort, "deny")), "true")
}

func TestBoolEqConstant(t *testing.T) {
	x := logic.NewBoolVar("x")
	wantStr(t, logic.Eq(x, logic.True), "x")
	wantStr(t, logic.Eq(x, logic.False), "!x")
	wantStr(t, logic.Ne(x, logic.True), "!x")
	wantStr(t, logic.Ne(x, logic.False), "x")
	wantStr(t, logic.Eq(logic.True, x), "x")
}

func TestDoubleNegation(t *testing.T) {
	x := logic.NewBoolVar("x")
	wantStr(t, logic.Not(logic.Not(x)), "x")
	wantStr(t, logic.Not(logic.Not(logic.Not(x))), "!x")
	wantStr(t, logic.Not(logic.True), "false")
	wantStr(t, logic.Not(logic.False), "true")
}

func TestAndOrIdentity(t *testing.T) {
	x, y := logic.NewBoolVar("x"), logic.NewBoolVar("y")
	wantStr(t, logic.And(logic.True, x), "x")
	wantStr(t, logic.And(logic.False, x), "false")
	wantStr(t, logic.Or(logic.False, x), "x")
	wantStr(t, logic.Or(logic.True, x), "true")
	wantStr(t, logic.And(x, x, y, x), "x & y")
	wantStr(t, logic.Or(x, x), "x")
	// Flattening.
	wantStr(t, logic.And(logic.And(x, y), x), "x & y")
	wantStr(t, logic.Or(logic.Or(x, y), y), "x | y")
}

func TestComplement(t *testing.T) {
	x := logic.NewBoolVar("x")
	wantStr(t, logic.And(x, logic.Not(x)), "false")
	wantStr(t, logic.Or(logic.Not(x), x), "true")
	// Complement recognized through other conjuncts.
	y := logic.NewBoolVar("y")
	wantStr(t, logic.And(x, y, logic.Not(x)), "false")
}

func TestImplicationRules(t *testing.T) {
	a, b := logic.NewBoolVar("a"), logic.NewBoolVar("b")
	wantStr(t, logic.Implies(logic.True, a), "a")
	wantStr(t, logic.Implies(a, logic.True), "true")
	wantStr(t, logic.Implies(a, logic.False), "!a")
	wantStr(t, logic.Implies(a, a), "true")
	if got := simp(t, logic.Implies(a, b)); got.String() != "a => b" {
		t.Errorf("irreducible implication changed: %s", got)
	}
}

func TestIffRules(t *testing.T) {
	a, b := logic.NewBoolVar("a"), logic.NewBoolVar("b")
	wantStr(t, logic.Iff(a, a), "true")
	wantStr(t, logic.Iff(a, logic.True), "a")
	wantStr(t, logic.Iff(logic.True, a), "a")
	wantStr(t, logic.Iff(a, logic.False), "!a")
	wantStr(t, logic.Iff(a, logic.Not(a)), "false")
	if got := simp(t, logic.Iff(a, b)); got.String() != "a <=> b" {
		t.Errorf("irreducible iff changed: %s", got)
	}
}

func TestIteRules(t *testing.T) {
	c := logic.NewBoolVar("c")
	x := logic.NewIntVar("x", 0, 9)
	wantStr(t, logic.Eq(logic.Ite(logic.True, logic.NewInt(1), x), logic.NewInt(1)), "true")
	wantStr(t, logic.Eq(logic.Ite(logic.False, x, logic.NewInt(2)), logic.NewInt(2)), "true")
	wantStr(t, logic.Eq(logic.Ite(c, x, x), x), "true")
	wantStr(t, logic.Ite(c, logic.True, logic.False), "c")
	wantStr(t, logic.Ite(c, logic.False, logic.True), "!c")
}

func TestEqReflexive(t *testing.T) {
	x := logic.NewIntVar("x", 0, 9)
	e := logic.NewEnumVar("e", actSort)
	wantStr(t, logic.Eq(x, x), "true")
	wantStr(t, logic.Ne(x, x), "false")
	wantStr(t, logic.Eq(e, e), "true")
	wantStr(t, logic.Lt(x, x), "false")
	wantStr(t, logic.Le(x, x), "true")
	wantStr(t, logic.Ge(x, x), "true")
	wantStr(t, logic.Gt(x, x), "false")
}

func TestDomainFold(t *testing.T) {
	x := logic.NewIntVar("x", 0, 10)
	// Comparisons decided by the declared domain.
	wantStr(t, logic.Le(x, logic.NewInt(10)), "true")
	wantStr(t, logic.Le(x, logic.NewInt(12)), "true")
	wantStr(t, logic.Ge(x, logic.NewInt(0)), "true")
	wantStr(t, logic.Lt(x, logic.NewInt(0)), "false")
	wantStr(t, logic.Gt(x, logic.NewInt(10)), "false")
	wantStr(t, logic.Eq(x, logic.NewInt(11)), "false")
	wantStr(t, logic.Ne(x, logic.NewInt(-1)), "true")
	// Two variables with disjoint domains.
	y := logic.NewIntVar("y", 20, 30)
	wantStr(t, logic.Lt(x, y), "true")
	wantStr(t, logic.Eq(x, y), "false")
	// Overlapping domains stay symbolic.
	z := logic.NewIntVar("z", 5, 15)
	if got := simp(t, logic.Lt(x, z)); got.String() != "x < z" {
		t.Errorf("overlapping-domain comparison changed: %s", got)
	}
}

func TestAbsorption(t *testing.T) {
	a, b := logic.NewBoolVar("a"), logic.NewBoolVar("b")
	wantStr(t, logic.And(a, logic.Or(a, b)), "a")
	wantStr(t, logic.Or(a, logic.And(a, b)), "a")
}

func TestEqPropagation(t *testing.T) {
	x := logic.NewIntVar("x", 0, 9)
	y := logic.NewIntVar("y", 0, 9)
	e := logic.NewEnumVar("e", actSort)
	b := logic.NewBoolVar("b")

	// x = 3 & x < 5  ->  x = 3 (the second conjunct becomes 3 < 5 = true)
	wantStr(t, logic.And(logic.Eq(x, logic.NewInt(3)), logic.Lt(x, logic.NewInt(5))), "x = 3")
	// x = 3 & x > 5  ->  false
	wantStr(t, logic.And(logic.Eq(x, logic.NewInt(3)), logic.Gt(x, logic.NewInt(5))), "false")
	// Reversed orientation literal = var.
	wantStr(t, logic.And(logic.Eq(logic.NewInt(3), x), logic.Gt(x, logic.NewInt(5))), "false")
	// Boolean units propagate: b & (b => y < 2) -> b & y < 2.
	wantStr(t, logic.And(b, logic.Implies(b, logic.Lt(y, logic.NewInt(2)))), "b & y < 2")
	// Negative boolean unit.
	wantStr(t, logic.And(logic.Not(b), logic.Or(b, logic.Eq(x, logic.NewInt(1)))), "!b & x = 1")
	// Enum propagation.
	wantStr(t,
		logic.And(
			logic.Eq(e, logic.NewEnum(actSort, "deny")),
			logic.Implies(logic.Eq(e, logic.NewEnum(actSort, "deny")), logic.Eq(x, logic.NewInt(0))),
		),
		"e = deny & x = 0")
	// Chained propagation across two variables.
	wantStr(t,
		logic.And(
			logic.Eq(x, logic.NewInt(4)),
			logic.Eq(y, x),
		),
		"x = 4 & y = 4")
}

func TestNegNormal(t *testing.T) {
	x := logic.NewIntVar("x", 0, 100)
	y := logic.NewIntVar("y", 0, 100)
	wantStr(t, logic.Not(logic.Eq(x, y)), "x != y")
	wantStr(t, logic.Not(logic.Ne(x, y)), "x = y")
	wantStr(t, logic.Not(logic.Lt(x, y)), "x >= y")
	wantStr(t, logic.Not(logic.Le(x, y)), "x > y")
	wantStr(t, logic.Not(logic.Gt(x, y)), "x <= y")
	wantStr(t, logic.Not(logic.Ge(x, y)), "x < y")
}

func TestStatsAndPasses(t *testing.T) {
	s := New()
	a := logic.NewBoolVar("a")
	in := logic.Or(a, logic.Not(a))
	s.Simplify(in)
	fires, passes := CountFires(in)
	if fires[RuleComplement] == 0 {
		t.Fatalf("complement rule did not fire: %v", fires)
	}
	if s.Passes < 1 || s.Passes != passes {
		t.Fatalf("Passes %d, counting run %d", s.Passes, passes)
	}
}

func TestDescribeAllRules(t *testing.T) {
	if len(AllRules) != 15 {
		t.Fatalf("expected exactly 15 rules, have %d", len(AllRules))
	}
	for _, r := range AllRules {
		if Describe(r) == "" {
			t.Errorf("rule %s has no description", r)
		}
	}
}

func TestLargeSeedCollapse(t *testing.T) {
	// A synthetic "seed specification": one symbolic variable buried in
	// hundreds of concrete constraints. Simplification should collapse
	// everything but the constraint on the symbolic variable — the
	// effect the paper's Section 4 reports.
	act := logic.NewEnumVar("R1_act", actSort)
	conjuncts := []logic.Term{
		logic.Implies(
			logic.Eq(act, logic.NewEnum(actSort, "permit")),
			logic.False, // permitting violates the global spec
		),
	}
	for i := 0; i < 300; i++ {
		n := logic.NewIntVar("pref", 0, 200)
		c := logic.Implies(
			logic.Eq(logic.NewInt(int64(i%7)), logic.NewInt(int64(i%7))),
			logic.Or(logic.Le(n, logic.NewInt(200)), logic.Eq(n, logic.NewInt(int64(i)))),
		)
		conjuncts = append(conjuncts, c)
	}
	seed := logic.And(conjuncts...)
	got := Simplify(seed)
	if logic.Size(got) > 10 {
		t.Fatalf("seed of size %d only simplified to size %d: %s",
			logic.Size(seed), logic.Size(got), got)
	}
	// The surviving constraint must mention the symbolic variable.
	if _, ok := logic.FreeVars(got)["R1_act"]; !ok {
		t.Fatalf("simplified seed lost the symbolic variable: %s", got)
	}
}

func TestIdempotence(t *testing.T) {
	x := logic.NewIntVar("x", 0, 9)
	b := logic.NewBoolVar("b")
	in := logic.And(
		logic.Implies(b, logic.Lt(x, logic.NewInt(5))),
		logic.Or(b, logic.Eq(x, logic.NewInt(7))),
	)
	once := Simplify(in)
	twice := Simplify(once)
	if !logic.Equal(once, twice) {
		t.Fatalf("not idempotent: %s vs %s", once, twice)
	}
}

// --- Property tests. ---

var (
	pBools = []*logic.Var{logic.NewBoolVar("p"), logic.NewBoolVar("q")}
	pInts  = []*logic.Var{logic.NewIntVar("i", 0, 3), logic.NewIntVar("j", 0, 3)}
	pEnum  = logic.NewEnumVar("act", actSort)
)

func randTerm(r *rand.Rand, depth int) logic.Term {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return pBools[r.Intn(2)]
		case 1:
			return logic.NewBool(r.Intn(2) == 0)
		case 2:
			return logic.Eq(pEnum, logic.NewEnum(actSort, actSort.Values[r.Intn(2)]))
		case 3:
			return logic.Le(pInts[r.Intn(2)], logic.NewInt(int64(r.Intn(6)-1)))
		case 4:
			return logic.Eq(pInts[r.Intn(2)], logic.NewInt(int64(r.Intn(6)-1)))
		default:
			return logic.Lt(pInts[0], pInts[1])
		}
	}
	switch r.Intn(7) {
	case 0:
		return logic.And(randTerm(r, depth-1), randTerm(r, depth-1))
	case 1:
		return logic.And(randTerm(r, depth-1), randTerm(r, depth-1), randTerm(r, depth-1))
	case 2:
		return logic.Or(randTerm(r, depth-1), randTerm(r, depth-1))
	case 3:
		return logic.Not(randTerm(r, depth-1))
	case 4:
		return logic.Implies(randTerm(r, depth-1), randTerm(r, depth-1))
	case 5:
		return logic.Iff(randTerm(r, depth-1), randTerm(r, depth-1))
	default:
		return logic.Ite(randTerm(r, depth-1), randTerm(r, depth-1), randTerm(r, depth-1))
	}
}

func forEachAssignment(f func(logic.Assignment) bool) bool {
	for pb := 0; pb < 2; pb++ {
		for qb := 0; qb < 2; qb++ {
			for i := int64(0); i <= 3; i++ {
				for j := int64(0); j <= 3; j++ {
					for e := 0; e < 2; e++ {
						a := logic.Assignment{
							"p":   logic.BoolValue(pb == 1),
							"q":   logic.BoolValue(qb == 1),
							"i":   logic.IntValue(i),
							"j":   logic.IntValue(j),
							"act": logic.EnumValue(actSort, actSort.Values[e]),
						}
						if !f(a) {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// Property: simplification preserves truth under every assignment.
func TestQuickSoundnessBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randTerm(r, 4)
		simplified := Simplify(term)
		ok := forEachAssignment(func(a logic.Assignment) bool {
			v1, err1 := logic.EvalBool(term, a)
			v2, err2 := logic.EvalBool(simplified, a)
			if err1 != nil || err2 != nil {
				return false
			}
			return v1 == v2
		})
		if !ok {
			t.Logf("simplification changed meaning:\n  in:  %s\n  out: %s", term, simplified)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: simplification never grows a term.
func TestQuickNeverGrows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randTerm(r, 4)
		simplified := Simplify(term)
		if logic.Size(simplified) > logic.Size(term) {
			t.Logf("grew: %s (%d) -> %s (%d)", term, logic.Size(term), simplified, logic.Size(simplified))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: simplification is idempotent.
func TestQuickIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randTerm(r, 4)
		once := Simplify(term)
		twice := Simplify(once)
		if !logic.Equal(once, twice) {
			t.Logf("not idempotent:\n  in:    %s\n  once:  %s\n  twice: %s", term, once, twice)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property (cross-checked with the SMT solver): term <=> Simplify(term)
// is valid.
func TestQuickSoundnessSMT(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		term := randTerm(r, 3)
		simplified := Simplify(term)
		s := smt.NewSolver()
		st, err := s.Solve(logic.Not(logic.Iff(term, simplified)))
		if err != nil {
			t.Logf("smt error: %v", err)
			return false
		}
		if st != sat.Unsat {
			t.Logf("SMT found a divergence:\n  in:  %s\n  out: %s", term, simplified)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
