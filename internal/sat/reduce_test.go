package sat

import (
	"fmt"
	"sort"
	"testing"
)

// litsKey renders a clause's literals as an order-insensitive map key so
// trace operations can be matched against clauses by content.
func litsKey(lits []Lit) string {
	ints := make([]int, len(lits))
	for i, l := range lits {
		ints[i] = int(l)
	}
	sort.Ints(ints)
	return fmt.Sprint(ints)
}

// checkPropIndexConsistency verifies the propagation indexes against
// the clause database: binaries appear on both binary implication
// lists (carrying the correct implied literal), ternaries on all
// three ternary watch lists (carrying the correct other literals),
// longer clauses on the watch lists of lits[0] and lits[1] — and no
// index entry references a clause outside the database (i.e. a
// detached clause never lingers).
func checkPropIndexConsistency(t *testing.T, s *Solver) {
	t.Helper()
	live := make(map[*clause]bool, len(s.clauses)+len(s.learnts))
	for _, c := range s.clauses {
		live[c] = true
	}
	for _, c := range s.learnts {
		if live[c] {
			t.Fatalf("clause %v present twice in the database", c.lits)
		}
		live[c] = true
	}
	count := make(map[*clause]int, len(live))
	for w := Lit(0); int(w) < len(s.watches); w++ {
		for _, wt := range s.watches[w] {
			c := wt.c
			if !live[c] {
				t.Fatalf("watch list of %d references a detached clause %v", w, c.lits)
			}
			if len(c.lits) <= 3 {
				t.Fatalf("short clause %v indexed on the long-clause watch lists", c.lits)
			}
			if c.lits[0].Neg() != w && c.lits[1].Neg() != w {
				t.Fatalf("clause %v watched on %d, which negates neither lits[0] nor lits[1]", c.lits, w)
			}
			count[c]++
		}
		for _, bw := range s.bins[w] {
			c := bw.c
			if !live[c] {
				t.Fatalf("binary list of %d references a detached clause %v", w, c.lits)
			}
			if len(c.lits) != 2 {
				t.Fatalf("clause %v of length %d indexed on the binary implication lists", c.lits, len(c.lits))
			}
			var other Lit
			switch w {
			case c.lits[0].Neg():
				other = c.lits[1]
			case c.lits[1].Neg():
				other = c.lits[0]
			default:
				t.Fatalf("binary clause %v on list of %d, which negates neither literal", c.lits, w)
			}
			if bw.other != other {
				t.Fatalf("binary clause %v on list of %d carries implied literal %d, want %d", c.lits, w, bw.other, other)
			}
			count[c]++
		}
		for _, tw := range s.terns[w] {
			c := tw.c
			if !live[c] {
				t.Fatalf("ternary list of %d references a detached clause %v", w, c.lits)
			}
			if len(c.lits) != 3 {
				t.Fatalf("clause %v of length %d indexed on the ternary watch lists", c.lits, len(c.lits))
			}
			others := map[Lit]bool{}
			found := false
			for _, l := range c.lits {
				if l.Neg() == w && !found {
					found = true
					continue
				}
				others[l] = true
			}
			if !found {
				t.Fatalf("ternary clause %v on list of %d, which negates none of its literals", c.lits, w)
			}
			if !others[tw.o1] || !others[tw.o2] || tw.o1 == tw.o2 {
				t.Fatalf("ternary clause %v on list of %d carries other literals %d,%d, want %v", c.lits, w, tw.o1, tw.o2, others)
			}
			count[c]++
		}
	}
	for c := range live {
		if len(c.lits) < 2 {
			t.Fatalf("stored clause %v has fewer than two literals", c.lits)
		}
		want := 2
		if len(c.lits) == 3 {
			want = 3
		}
		if count[c] != want {
			t.Fatalf("clause %v has %d propagation-index entries, want %d", c.lits, count[c], want)
		}
	}
}

// traceDeleteKeys collects the ProofDelete operations of a trace as
// order-insensitive clause keys.
func traceDeleteKeys(tr *Trace) map[string]int {
	keys := make(map[string]int)
	for i := 0; i < tr.Len(); i++ {
		if op := tr.Op(i); op.Kind == ProofDelete {
			keys[litsKey(op.Lits)]++
		}
	}
	return keys
}

// traceDeletes counts the ProofDelete operations of a trace.
func traceDeletes(tr *Trace) int {
	n := 0
	for _, c := range traceDeleteKeys(tr) {
		n += c
	}
	return n
}

// TestReduceDBInvariants drives reduceDB over a hand-built learnt
// database and checks its one retention rule: binary learnts and
// locked (reason) clauses survive, and nothing else is immune — a
// glue-2 clause in the worst half goes like any other. Everything
// deleted is detached from the propagation indexes and logged with
// exactly one ProofDelete, and once its lock is released a reason
// clause becomes deletable.
func TestReduceDBInvariants(t *testing.T) {
	s := NewSolver()
	tr := NewTrace()
	if err := s.SetProof(tr); err != nil {
		t.Fatal(err)
	}
	vars := newVars(s, 120)
	lit := func(i int) Lit { return MkLit(vars[i], true) }

	// Problem clauses: reduceDB must never touch these.
	s.AddClause(lit(0), lit(1), lit(2))
	s.AddClause(lit(3), lit(4))

	addLearnt := func(lbd int32, act float64, lits ...Lit) *clause {
		c := &clause{lits: lits, learnt: true, activity: act, lbd: lbd}
		s.attach(c)
		s.learnts = append(s.learnts, c)
		return c
	}
	// junk manufactures the best-ranked clauses: glue 2, activity 1,
	// over fresh variables. Every clause under test ranks worse, so
	// the worst-first scan reaches it before the deletion target is
	// met and only the retention rule can save it.
	next := 20
	junk := func(n int) []*clause {
		out := make([]*clause, n)
		for i := range out {
			out[i] = addLearnt(2, 1, lit(next), lit(next+1), lit(next+2))
			next += 3
		}
		return out
	}

	binLearnt := addLearnt(9, 0, lit(8), lit(9))
	locked := addLearnt(12, 0, lit(13), lit(14), lit(15))
	lowGlue := addLearnt(2, 0, lit(5), lit(6), lit(7))
	junk1 := junk(8)

	// Make locked the reason of a current assignment: open a decision
	// level and enqueue its first literal from it, exactly as propagate
	// would.
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(locked.lits[0], locked)
	if !s.locked(locked) {
		t.Fatal("setup: reason clause not reported locked")
	}

	inDB := func(c *clause) bool {
		for _, l := range s.learnts {
			if l == c {
				return true
			}
		}
		return false
	}

	s.reduceDB()
	for _, c := range []*clause{binLearnt, locked} {
		if !inDB(c) {
			t.Fatalf("immune clause %v deleted by reduceDB", c.lits)
		}
	}
	if inDB(lowGlue) {
		t.Fatal("glue-2 clause in the worst half survived reduction")
	}
	gone := map[string]int{litsKey(lowGlue.lits): 1}
	for _, c := range junk1 {
		if !inDB(c) {
			gone[litsKey(c.lits)]++
		}
	}
	if got, want := len(gone), 1+len(junk1)/2; got != want {
		t.Fatalf("reduceDB deleted %d clauses, want the worst half (%d)", got, want)
	}
	if got, want := int(s.Stats.RemovedClauses), len(gone); got != want {
		t.Fatalf("Stats.RemovedClauses = %d, want %d", got, want)
	}
	checkPropIndexConsistency(t, s)

	// Every ProofDelete must name a clause that actually left the
	// database, exactly once.
	if dels := traceDeleteKeys(tr); fmt.Sprint(dels) != fmt.Sprint(gone) {
		t.Fatalf("ProofDelete operations %v do not match removed clauses %v", dels, gone)
	}

	// Release the lock by backtracking; the clause loses its immunity,
	// while the binary keeps its own.
	s.cancelUntil(0)
	if s.locked(locked) {
		t.Fatal("clause still locked after backtracking")
	}
	junk(8)
	s.reduceDB()
	if inDB(locked) {
		t.Fatal("unlocked high-glue clause survived reduction")
	}
	if !inDB(binLearnt) {
		t.Fatal("binary learnt deleted by the second reduction")
	}
	if got, want := traceDeletes(tr), int(s.Stats.RemovedClauses); got != want {
		t.Fatalf("trace records %d deletions, stats say %d", got, want)
	}
	checkPropIndexConsistency(t, s)
}

// TestReduceDBDuringSearch runs real searches big enough to trigger
// clause-database reductions and checks the global invariants hold
// afterwards: reason clauses of the final trail are all in the
// database, the propagation indexes are consistent, ProofDelete count
// matches the removal counter, and on Unsat the full trace — deletions
// included — passes the independent checker.
func TestReduceDBDuringSearch(t *testing.T) {
	t.Run("sat", func(t *testing.T) {
		s := NewSolver()
		tr := NewTrace()
		if err := s.SetProof(tr); err != nil {
			t.Fatal(err)
		}
		addRandom3SAT(s, 200, 800, 3)
		if st := s.Solve(); st != Sat {
			t.Fatalf("Solve = %v, want Sat", st)
		}
		if s.Stats.Reductions == 0 {
			t.Fatal("search completed without a reduction; enlarge the instance")
		}
		if got, want := traceDeletes(tr), int(s.Stats.RemovedClauses); got != want {
			t.Fatalf("trace records %d deletions, stats say %d", got, want)
		}
		checkPropIndexConsistency(t, s)
	})
	t.Run("unsat-proof", func(t *testing.T) {
		s := NewSolver()
		tr := NewTrace()
		if err := s.SetProof(tr); err != nil {
			t.Fatal(err)
		}
		addRandom3SAT(s, 140, 600, 5)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("Solve = %v, want Unsat", st)
		}
		if s.Stats.Reductions == 0 {
			t.Fatal("search completed without a reduction; enlarge the instance")
		}
		if got, want := traceDeletes(tr), int(s.Stats.RemovedClauses); got != want {
			t.Fatalf("trace records %d deletions, stats say %d", got, want)
		}
		checkPropIndexConsistency(t, s)
		c := mustCheckTrace(t, tr)
		if !c.RootConflict() {
			t.Fatal("proof with deletions checked but no root conflict reached")
		}
	})
}

// TestReduceDBKeepsReasonsOfTrail checks the state a search leaves
// behind: after a solve that ran reductions, every reason clause on
// the trail (Solve returns at level 0) is still present in the clause
// database.
func TestReduceDBKeepsReasonsOfTrail(t *testing.T) {
	s := NewSolver()
	addRandom3SAT(s, 200, 800, 10)
	if st := s.Solve(); st == Unsat {
		t.Fatalf("Solve = %v, want Sat", st)
	}
	if s.Stats.Reductions == 0 {
		t.Fatal("search completed without a reduction; enlarge the instance")
	}
	live := make(map[*clause]bool, len(s.clauses)+len(s.learnts))
	for _, c := range s.clauses {
		live[c] = true
	}
	for _, c := range s.learnts {
		live[c] = true
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil && !live[r] {
			t.Fatalf("trail literal %d has a detached reason clause %v", l, r.lits)
		}
	}
	checkPropIndexConsistency(t, s)
}

func TestReduceDBUnderPressure(t *testing.T) {
	// Enough conflicts to trigger learnt-clause reduction; the solver
	// must stay correct.
	s := NewSolver()
	pigeonhole(s, 8, 7)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(8,7) = %v, want Unsat", got)
	}
	if s.Stats.Learnt == 0 {
		t.Fatal("no clauses learnt on a hard instance")
	}
}
