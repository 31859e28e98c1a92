package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newVars(s *Solver, n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTrivialSat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	if !s.AddClause(PosLit(v[0]), PosLit(v[1])) {
		t.Fatal("AddClause failed")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if s.Value(v[0]) != LTrue && s.Value(v[1]) != LTrue {
		t.Fatal("model does not satisfy the clause")
	}
}

func TestEmptyProblemIsSat(t *testing.T) {
	s := NewSolver()
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}

func TestEmptyClauseIsUnsat(t *testing.T) {
	s := NewSolver()
	if s.AddClause() {
		t.Fatal("empty clause should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestUnitPropagationConflict(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 1)
	s.AddClause(PosLit(v[0]))
	if s.AddClause(NegLit(v[0])) {
		t.Fatal("contradictory units should report failure")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	// Tautological clause is dropped entirely.
	if !s.AddClause(PosLit(v[0]), NegLit(v[0])) {
		t.Fatal("tautology should be accepted")
	}
	if s.NumClauses() != 0 {
		t.Fatalf("tautology should not be stored, have %d clauses", s.NumClauses())
	}
	// Duplicate literals are merged; the clause is stored once with 2 lits.
	if !s.AddClause(PosLit(v[0]), PosLit(v[0]), PosLit(v[1])) {
		t.Fatal("AddClause failed")
	}
	if s.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", s.NumClauses())
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}

// xorClauses encodes a XOR b XOR c = rhs into CNF.
func xorClauses(s *Solver, a, b, c Var, rhs bool) {
	for i := 0; i < 8; i++ {
		x, y, z := i&1 == 1, i&2 == 2, i&4 == 4
		if (x != y != z) != rhs {
			// This assignment violates the XOR; forbid it.
			s.AddClause(MkLit(a, !x), MkLit(b, !y), MkLit(c, !z))
		}
	}
}

func TestXorChainSat(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 9)
	xorClauses(s, v[0], v[1], v[2], true)
	xorClauses(s, v[2], v[3], v[4], true)
	xorClauses(s, v[4], v[5], v[6], false)
	xorClauses(s, v[6], v[7], v[8], true)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	m := s.Model()
	x := func(i int) bool { return m[v[i]] }
	if (x(0) != x(1) != x(2)) != true {
		t.Fatal("xor 1 violated")
	}
	if (x(4) != x(5) != x(6)) != false {
		t.Fatal("xor 3 violated")
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes — classically
// unsatisfiable and exercising deep conflict analysis.
func pigeonhole(s *Solver, pigeons, holes int) {
	p := make([][]Var, pigeons)
	for i := range p {
		p[i] = newVars(s, holes)
		lits := make([]Lit, holes)
		for j := range lits {
			lits[j] = PosLit(p[i][j])
		}
		s.AddClause(lits...) // each pigeon in some hole
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(NegLit(p[i][j]), NegLit(p[k][j]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := NewSolver()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5) = %v, want Sat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 3)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))
	s.AddClause(NegLit(v[1]), PosLit(v[2]))

	if got := s.Solve(NegLit(v[0])); got != Sat {
		t.Fatalf("Solve(!x0) = %v, want Sat", got)
	}
	if s.Value(v[1]) != LTrue {
		t.Fatal("x1 must be true when x0 is assumed false")
	}
	// Conflicting assumptions.
	if got := s.Solve(NegLit(v[0]), NegLit(v[1])); got != Unsat {
		t.Fatalf("Solve(!x0,!x1) = %v, want Unsat", got)
	}
	core := s.Core()
	if len(core) == 0 {
		t.Fatal("expected a non-empty core")
	}
	// Core must be a subset of the assumptions.
	for _, l := range core {
		if l != NegLit(v[0]) && l != NegLit(v[1]) {
			t.Fatalf("core literal %v is not an assumption", l)
		}
	}
	// Solver must remain usable: solve again without assumptions.
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() after failed assumptions = %v, want Sat", got)
	}
}

func TestAssumptionOfLevel0Unit(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 2)
	s.AddClause(PosLit(v[0]))               // unit at level 0
	s.AddClause(NegLit(v[0]), PosLit(v[1])) // forces x1
	if got := s.Solve(NegLit(v[0])); got != Unsat {
		t.Fatalf("assuming the negation of a level-0 unit = %v, want Unsat", got)
	}
	if got := s.Solve(PosLit(v[0]), PosLit(v[1])); got != Sat {
		t.Fatalf("compatible assumptions = %v, want Sat", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 6, 5)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Propagations == 0 || s.Stats.Decisions == 0 {
		t.Fatalf("stats not populated: %+v", s.Stats)
	}
}

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{Sat: "sat", Unsat: "unsat", Unknown: "unknown"}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
	if LTrue.String() != "true" || LFalse.String() != "false" || LUndef.String() != "undef" {
		t.Error("LBool strings wrong")
	}
	l := PosLit(3)
	if l.String() != "x3" || l.Neg().String() != "!x3" {
		t.Errorf("lit strings: %s %s", l, l.Neg())
	}
}

func TestLuby(t *testing.T) {
	want := []float64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(1, uint64(i)); got != w {
			t.Fatalf("luby(1,%d) = %v, want %v", i, got, w)
		}
	}
}

func TestAddClauseDuringSearchPanics(t *testing.T) {
	// AddClause at a nonzero decision level is a programming error.
	s := NewSolver()
	v := s.NewVar()
	s.trailLim = append(s.trailLim, 0) // simulate being mid-search
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddClause(PosLit(v))
}

// --- Reference brute-force solver for differential testing. ---

type cnf struct {
	nVars   int
	clauses [][]Lit
}

func (f *cnf) satisfiable() bool {
	assign := make([]bool, f.nVars)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == f.nVars {
			for _, c := range f.clauses {
				ok := false
				for _, l := range c {
					if assign[l.Var()] == l.IsPos() {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
			return true
		}
		assign[i] = false
		if rec(i + 1) {
			return true
		}
		assign[i] = true
		return rec(i + 1)
	}
	return rec(0)
}

func randomCNF(r *rand.Rand, nVars, nClauses, maxLen int) *cnf {
	f := &cnf{nVars: nVars}
	for i := 0; i < nClauses; i++ {
		n := 1 + r.Intn(maxLen)
		c := make([]Lit, 0, n)
		for j := 0; j < n; j++ {
			c = append(c, MkLit(Var(r.Intn(nVars)), r.Intn(2) == 0))
		}
		f.clauses = append(f.clauses, c)
	}
	return f
}

// Property: CDCL agrees with brute force on random small CNFs, and on
// Sat instances the model actually satisfies every clause.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nVars := 3 + r.Intn(10)
		form := randomCNF(r, nVars, 2+r.Intn(40), 3)
		want := form.satisfiable()

		s := NewSolver()
		newVars(s, nVars)
		for _, c := range form.clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		if (got == Sat) != want {
			t.Logf("mismatch: brute force %v, solver %v", want, got)
			return false
		}
		if got == Sat {
			m := s.Model()
			for _, c := range form.clauses {
				ok := false
				for _, l := range c {
					if m[l.Var()] == l.IsPos() {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("model violates clause %v", c)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: under assumptions, Unsat cores are sound — re-solving with
// only the core assumptions is still Unsat.
func TestQuickCoreSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nVars := 4 + r.Intn(8)
		form := randomCNF(r, nVars, 5+r.Intn(30), 3)

		s := NewSolver()
		newVars(s, nVars)
		for _, c := range form.clauses {
			s.AddClause(c...)
		}
		// Random assumptions over the first few variables.
		var assume []Lit
		for v := 0; v < nVars/2; v++ {
			assume = append(assume, MkLit(Var(v), r.Intn(2) == 0))
		}
		if s.Solve(assume...) != Unsat {
			return true // nothing to check
		}
		core := append([]Lit(nil), s.Core()...)
		if len(core) > len(assume) {
			t.Logf("core larger than assumption set")
			return false
		}
		if s.Solve(core...) != Unsat {
			t.Logf("core %v is not itself unsat", core)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: solving the same instance twice (with intervening failed
// assumption solves) is deterministic in status.
func TestQuickResolveStability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nVars := 3 + r.Intn(8)
		form := randomCNF(r, nVars, 2+r.Intn(25), 3)
		s := NewSolver()
		newVars(s, nVars)
		for _, c := range form.clauses {
			s.AddClause(c...)
		}
		first := s.Solve()
		s.Solve(MkLit(0, r.Intn(2) == 0))
		second := s.Solve()
		return first == second
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
