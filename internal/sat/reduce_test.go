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

// checkPropIndexConsistency verifies the propagation index against
// the clause database and the trail: every stored clause appears once
// on the watch list of ¬lits[0] and once on that of ¬lits[1], each
// watcher's blocker is another literal of its clause, no watcher
// references a clause outside the database (a detached clause never
// lingers), and every trail literal with a reason leads that reason
// clause.
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
	on := make(map[*clause][]Lit, len(live))
	for w := Lit(0); int(w) < len(s.watches); w++ {
		for _, wt := range s.watches[w] {
			c := wt.c
			if !live[c] {
				t.Fatalf("watch list of %d references a detached clause %v", w, c.lits)
			}
			blocks := false
			for _, l := range c.lits {
				blocks = blocks || l == wt.blocker
			}
			if !blocks || wt.blocker.Neg() == w {
				t.Fatalf("clause %v on the list of %d carries blocker %d, not another literal of the clause", c.lits, w, wt.blocker)
			}
			on[c] = append(on[c], w)
		}
	}
	for c := range live {
		if len(c.lits) < 2 {
			t.Fatalf("stored clause %v has fewer than two literals", c.lits)
		}
		a, b := c.lits[0].Neg(), c.lits[1].Neg()
		if ws := on[c]; len(ws) != 2 || (ws[0] != a || ws[1] != b) && (ws[0] != b || ws[1] != a) {
			t.Fatalf("clause %v is on the watch lists of %v, want exactly those of ¬lits[0] and ¬lits[1]", c.lits, ws)
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil && r.lits[0] != l {
			t.Fatalf("trail literal %d does not lead its reason clause %v", l, r.lits)
		}
	}
}

// TestReasonLeadsWithImpliedLiteral decides one literal at level 1
// over a chain of binary clauses and one ternary clause, each written
// with its implied literal out of slot 0, and propagates: every
// implied literal must lead its reason clause, which is then locked,
// and backtracking to level 0 releases every lock.
func TestReasonLeadsWithImpliedLiteral(t *testing.T) {
	s := NewSolver()
	x := newVars(s, 6)
	s.AddClause(NegLit(x[0]), PosLit(x[1]))               // x0 -> x1
	s.AddClause(NegLit(x[1]), PosLit(x[2]))               // x1 -> x2
	s.AddClause(NegLit(x[0]), PosLit(x[3]))               // x0 -> x3
	s.AddClause(NegLit(x[2]), NegLit(x[3]), PosLit(x[4])) // x2 & x3 -> x4
	s.AddClause(NegLit(x[4]), PosLit(x[5]))               // x4 -> x5
	checkPropIndexConsistency(t, s)

	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(PosLit(x[0]), nil)
	if c := s.propagate(); c != nil {
		t.Fatalf("propagation conflicts on %v", c.lits)
	}
	if len(s.trail) != len(x) {
		t.Fatalf("trail %v, want all %d variables assigned true", s.trail, len(x))
	}
	checkPropIndexConsistency(t, s)
	var reasons []*clause
	for _, l := range s.trail[1:] {
		r := s.reason[l.Var()]
		if r == nil || s.level[l.Var()] != 1 || !l.IsPos() {
			t.Fatalf("literal %d: reason %v at level %d, want implied true at level 1", l, r, s.level[l.Var()])
		}
		if !s.locked(r) {
			t.Fatalf("reason %v of %d not locked", r.lits, l)
		}
		reasons = append(reasons, r)
	}
	s.cancelUntil(0)
	for _, r := range reasons {
		if s.locked(r) {
			t.Fatalf("reason %v still locked at level 0", r.lits)
		}
	}
	checkPropIndexConsistency(t, s)
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
// deleted is detached from the watch lists and logged with
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
// database, the propagation index is consistent, ProofDelete count
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
