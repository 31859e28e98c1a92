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
	for _, op := range tr.Snapshot() {
		if op.Kind == ProofDelete {
			keys[litsKey(op.Lits)]++
		}
	}
	return keys
}

// TestReduceDBInvariants drives reduceDB over a hand-built learnt
// database and checks the retention rules one by one: locked (reason)
// clauses, glue clauses, binary learnts, and protected mid-tier clauses
// survive; everything deleted is detached from the propagation indexes
// and logged with exactly one ProofDelete; and once its protection is
// spent or its lock released, a clause becomes deletable.
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

	addLearnt := func(lbd int32, act float64, protect bool, lits ...Lit) *clause {
		c := &clause{lits: lits, learnt: true, activity: act, lbd: lbd, protect: protect}
		s.attach(c)
		s.learnts = append(s.learnts, c)
		return c
	}
	// junk manufactures deletable clauses: unprotected mid-glue, zero
	// activity, over fresh variables. Their glue (5) is deliberately
	// *better* than the locked and protected clauses below, so the
	// worst-first scan reaches those clauses before the deletion target
	// is met — otherwise their retention rules would never be exercised.
	next := 20
	junk := func(n int) []*clause {
		out := make([]*clause, n)
		for i := range out {
			out[i] = addLearnt(5, 0, false, lit(next), lit(next+1), lit(next+2))
			next += 3
		}
		return out
	}

	glue := addLearnt(coreLBD, 0, false, lit(5), lit(6), lit(7))
	binLearnt := addLearnt(9, 0, false, lit(8), lit(9))
	protectedMid := addLearnt(midLBD, 0, true, lit(10), lit(11), lit(12))
	locked := addLearnt(12, 0, false, lit(13), lit(14), lit(15))
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
	for _, c := range []*clause{glue, binLearnt, protectedMid, locked} {
		if !inDB(c) {
			t.Fatalf("protected clause %v deleted by reduceDB", c.lits)
		}
	}
	if protectedMid.protect {
		t.Fatal("mid-tier clause survived reduction without spending its protection")
	}
	removed1 := 0
	for _, c := range junk1 {
		if !inDB(c) {
			removed1++
		}
	}
	if removed1 == 0 {
		t.Fatal("reduceDB removed no junk clauses; the test exercises nothing")
	}
	if got, want := int(s.Stats.RemovedClauses), removed1; got != want {
		t.Fatalf("Stats.RemovedClauses = %d, want %d", got, want)
	}
	if got, want := tr.Deletes(), removed1; got != want {
		t.Fatalf("trace records %d deletions, want %d", got, want)
	}
	checkPropIndexConsistency(t, s)

	// Every ProofDelete must name a clause that actually left the
	// database, exactly once.
	gone := make(map[string]int)
	for _, c := range junk1 {
		if !inDB(c) {
			gone[litsKey(c.lits)]++
		}
	}
	if dels := traceDeleteKeys(tr); fmt.Sprint(dels) != fmt.Sprint(gone) {
		t.Fatalf("ProofDelete operations %v do not match removed clauses %v", dels, gone)
	}

	// Second reduction: protection spent, the mid-tier clause is now
	// deletable; the lock still holds.
	junk(8)
	s.reduceDB()
	if inDB(protectedMid) {
		t.Fatal("mid-tier clause survived a second reduction after spending its protection")
	}
	if !inDB(locked) {
		t.Fatal("locked clause deleted while still a reason")
	}
	checkPropIndexConsistency(t, s)

	// Release the lock by backtracking; the clause loses its immunity.
	s.cancelUntil(0)
	if s.locked(locked) {
		t.Fatal("clause still locked after backtracking")
	}
	junk(8)
	s.reduceDB()
	if inDB(locked) {
		t.Fatal("unlocked high-glue clause survived reduction")
	}
	if got, want := tr.Deletes(), int(s.Stats.RemovedClauses); got != want {
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
		if got, want := tr.Deletes(), int(s.Stats.RemovedClauses); got != want {
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
		if got, want := tr.Deletes(), int(s.Stats.RemovedClauses); got != want {
			t.Fatalf("trace records %d deletions, stats say %d", got, want)
		}
		checkPropIndexConsistency(t, s)
		c := mustCheckTrace(t, tr)
		if !c.RootConflict() {
			t.Fatal("proof with deletions checked but no root conflict reached")
		}
	})
}

// TestReduceDBKeepsReasonsOfTrail checks mid-search state directly:
// after a bounded search is interrupted, every reason clause on the
// trail is still present in the clause database.
func TestReduceDBKeepsReasonsOfTrail(t *testing.T) {
	s := NewSolver()
	addRandom3SAT(s, 200, 800, 10)
	s.ConflictBudget = 4000
	if st := s.Solve(); st == Unsat {
		t.Fatalf("Solve = %v, want Sat or Unknown", st)
	}
	if s.Stats.Reductions == 0 {
		t.Fatal("search completed without a reduction; enlarge the budget")
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
