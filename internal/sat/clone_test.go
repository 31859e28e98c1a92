package sat

import (
	"math/rand"
	"sync"
	"testing"
)

// randomCNF adds a random 3-CNF over the solver's n variables.
func clone3CNF(rng *rand.Rand, s *Solver, vars []Var, clauses int) [][]Lit {
	var out [][]Lit
	for i := 0; i < clauses; i++ {
		lits := make([]Lit, 3)
		for j := range lits {
			lits[j] = MkLit(vars[rng.Intn(len(vars))], rng.Intn(2) == 0)
		}
		out = append(out, lits)
		s.AddClause(lits...)
	}
	return out
}

// TestCloneSameVerdicts checks the central Clone invariant: on random
// formulas, the clone and the original reach the same verdict for the
// same assumption probes — including after the original has solved
// (and therefore learnt) before cloning, so the carried-over learnt
// clauses must not change any answer.
func TestCloneSameVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		s := NewSolver()
		vars := newVars(s, 12)
		formula := clone3CNF(rng, s, vars, 30+rng.Intn(30))

		// Warm the original: a few solves under random assumptions make
		// it accumulate learnts, phases, and activity.
		for i := 0; i < 3; i++ {
			s.Solve(MkLit(vars[rng.Intn(len(vars))], rng.Intn(2) == 0))
		}

		c := s.Clone()
		// A cold solver over the same formula (no learnts, no saved
		// state) is the ground-truth oracle.
		fresh := NewSolver()
		fvars := newVars(fresh, 12)
		for _, cl := range formula {
			fresh.AddClause(cl...)
		}

		for probe := 0; probe < 8; probe++ {
			var as, fas []Lit
			for k := 0; k < 1+rng.Intn(3); k++ {
				v := rng.Intn(len(vars))
				pos := rng.Intn(2) == 0
				as = append(as, MkLit(vars[v], pos))
				fas = append(fas, MkLit(fvars[v], pos))
			}
			want := fresh.Solve(fas...)
			if got := c.Solve(as...); got != want {
				t.Fatalf("round %d probe %d: clone = %v, fresh = %v (assumptions %v)", round, probe, got, want, as)
			}
			if got := s.Solve(as...); got != want {
				t.Fatalf("round %d probe %d: original = %v, fresh = %v", round, probe, got, want)
			}
		}
	}
}

// TestCloneIndependent checks that clauses added to the clone after
// cloning do not leak into the original and vice versa.
func TestCloneIndependent(t *testing.T) {
	s := NewSolver()
	v := newVars(s, 3)
	s.AddClause(PosLit(v[0]), PosLit(v[1]))

	c := s.Clone()
	// Constrain the clone into a corner; the original must not notice.
	c.AddClause(NegLit(v[0]))
	c.AddClause(NegLit(v[1]))
	if got := c.Solve(); got != Unsat {
		t.Fatalf("clone = %v, want Unsat", got)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("original after clone constrained = %v, want Sat", got)
	}
	// And the other direction.
	s.AddClause(NegLit(v[2]))
	c2 := s.Clone()
	s.AddClause(PosLit(v[2]))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("original = %v, want Unsat", got)
	}
	if got := c2.Solve(PosLit(v[0])); got != Sat {
		t.Fatalf("second clone = %v, want Sat", got)
	}
}

// TestCloneCarriesLearnts checks that a clone of a solver that has
// learnt clauses actually holds copies of them (the warm start the
// lift worker pool relies on), with fresh counters.
func TestCloneCarriesLearnts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSolver()
	vars := newVars(s, 20)
	clone3CNF(rng, s, vars, 90)
	for i := 0; i < 5; i++ {
		s.Solve(MkLit(vars[rng.Intn(len(vars))], rng.Intn(2) == 0))
	}
	if len(s.learnts) == 0 {
		t.Skip("formula produced no learnt clauses; widen the CNF")
	}
	c := s.Clone()
	if len(c.learnts) != len(s.learnts) {
		t.Fatalf("clone learnts = %d, original = %d", len(c.learnts), len(s.learnts))
	}
	for i := range c.learnts {
		if c.learnts[i] == s.learnts[i] {
			t.Fatal("clone shares a learnt clause pointer with the original")
		}
	}
	if c.Stats.Conflicts != 0 || c.Stats.Solves != 0 {
		t.Fatalf("clone work counters not zeroed: %+v", c.Stats)
	}
	if c.Stats.MaxVars != s.Stats.MaxVars || c.Stats.Clauses != s.Stats.Clauses {
		t.Fatalf("clone gauges not carried over: %+v vs %+v", c.Stats, s.Stats)
	}
}

// TestConcurrentCloneWithProof clones one proof-logging solver from
// several goroutines at once — the checkout pattern of the lift worker
// pool — and lets every clone finish an Unsat search whose forked
// trace must check independently.
func TestConcurrentCloneWithProof(t *testing.T) {
	base := NewSolver()
	tr := NewTrace()
	if err := base.SetProof(tr); err != nil {
		t.Fatal(err)
	}
	addRandom3SAT(base, 140, 600, 5) // unsat family instance
	base.ConflictBudget = 40
	if st := base.Solve(); st != Unknown {
		t.Fatalf("warmup solve = %v, want Unknown (budgeted)", st)
	}
	base.ConflictBudget = 0

	const clones = 4
	var wg sync.WaitGroup
	traces := make([]*Trace, clones)
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := base.Clone()
			if st := c.Solve(); st != Unsat {
				t.Errorf("clone %d: Solve = %v, want Unsat", i, st)
				return
			}
			ctr, ok := c.Proof().(*Trace)
			if !ok {
				t.Errorf("clone %d: proof writer not forked", i)
				return
			}
			traces[i] = ctr
		}(i)
	}
	wg.Wait()
	for i, ctr := range traces {
		if ctr == nil {
			continue // an earlier Errorf already failed the test
		}
		c := mustCheckTrace(t, ctr)
		if !c.RootConflict() {
			t.Fatalf("clone %d: checked trace has no root conflict", i)
		}
	}
}
