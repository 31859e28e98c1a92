package sat

import (
	"testing"

	"repro/internal/drat"
)

// FuzzDifferential cross-checks the CDCL solver against a brute-force
// model enumerator on small formulas decoded from the fuzz input, and
// demands a checker-accepted proof for every Unsat verdict:
//
//   - Sat must agree with brute force, and the model must satisfy
//     every clause.
//   - Unsat must agree with brute force, and the recorded trace must
//     pass the independent RUP checker ending in a root conflict.
//   - Unsat under assumptions must agree with brute force, the core
//     must be a duplicate-free subset of the assumptions that is
//     itself sufficient for unsatisfiability, and the trace's terminal
//     lemma must be exactly the negated core.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0, 1, 1})                            // unit + its negation
	f.Add([]byte{4, 2, 2, 0, 3, 2, 1, 2, 2, 4, 5, 1, 7, 0, 5}) // mixed clauses + assumptions
	f.Add([]byte{7, 1, 3, 0, 2, 4, 3, 5, 6, 8, 2, 9, 10, 1, 12, 2, 13, 1})
	f.Add([]byte{1, 2, 1, 0, 1, 1, 0, 1})
	// Binary implication chain 1->2->3->4->5 plus units 1 and -5:
	// unsat by propagation over two-literal clauses alone.
	f.Add([]byte{7, 0, 1, 1, 2, 1, 3, 4, 1, 5, 6, 1, 7, 8, 0, 0, 0, 9})
	// Binary-heavy mix with two assumptions drawn from the tail:
	// exercises two-literal reasons under assumption cores.
	f.Add([]byte{7, 2, 1, 0, 2, 1, 4, 3, 2, 6, 8, 10, 1, 12, 14, 1, 9, 11, 0, 2, 1, 13, 15})
	// Ternary clauses threaded through shared variables: deep enough
	// reason chains for recursive minimization to fire.
	f.Add([]byte{6, 1, 2, 0, 2, 4, 2, 1, 6, 8, 2, 3, 10, 12, 2, 5, 9, 13, 2, 7, 11, 0, 2, 8, 12, 1, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, clauses, assume := decodeDiff(data)
		if nVars == 0 {
			return
		}
		s := NewSolver()
		tr := NewTrace()
		if err := s.SetProof(tr); err != nil {
			t.Fatal(err)
		}
		vars := make([]Var, nVars)
		for i := range vars {
			vars[i] = s.NewVar()
		}
		toLit := func(l int) Lit {
			v := vars[abs(l)-1]
			return MkLit(v, l > 0)
		}
		for _, cl := range clauses {
			ls := make([]Lit, len(cl))
			for i, l := range cl {
				ls[i] = toLit(l)
			}
			s.AddClause(ls...)
		}
		st := s.Solve()
		want := bruteSat(nVars, clauses, nil)
		switch st {
		case Sat:
			if !want {
				t.Fatalf("solver Sat, brute force unsat: %v", clauses)
			}
			m := s.Model()
			for _, cl := range clauses {
				ok := false
				for _, l := range cl {
					if m[abs(l)-1] == (l > 0) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("model %v violates clause %v", m, cl)
				}
			}
		case Unsat:
			if want {
				t.Fatalf("solver Unsat, brute force sat: %v", clauses)
			}
			c := mustCheckTrace(t, tr)
			if !c.RootConflict() {
				t.Fatalf("plain Unsat proof checked but no root conflict reached")
			}
		default:
			t.Fatalf("unexpected status %v without a cancelled context", st)
		}

		if st != Sat || len(assume) == 0 {
			return
		}
		as := make([]Lit, len(assume))
		for i, l := range assume {
			as[i] = toLit(l)
		}
		st2 := s.Solve(as...)
		want2 := bruteSat(nVars, clauses, assume)
		if (st2 == Sat) != want2 {
			t.Fatalf("assumptions %v: solver %v, brute force sat=%v", assume, st2, want2)
		}
		if st2 != Unsat {
			return
		}
		core := s.Core()
		allowed := map[int]bool{}
		for _, l := range assume {
			allowed[l] = true
		}
		seen := map[int]bool{}
		coreInts := make([]int, 0, len(core))
		for _, l := range core {
			d := int(l.Var()) + 1
			if !l.IsPos() {
				d = -d
			}
			if !allowed[d] {
				t.Fatalf("core literal %d is not among the assumptions %v", d, assume)
			}
			if seen[d] {
				t.Fatalf("duplicate literal %d in core %v", d, core)
			}
			seen[d] = true
			coreInts = append(coreInts, d)
		}
		if len(coreInts) == 0 {
			t.Fatalf("empty core for Unsat under assumptions on a satisfiable formula")
		}
		if bruteSat(nVars, clauses, coreInts) {
			t.Fatalf("core %v is not sufficient: formula satisfiable under it", coreInts)
		}
		c := mustCheckTrace(t, tr)
		_ = c
		verdict := lastLearnOp(tr)
		if verdict == nil {
			t.Fatalf("no terminal lemma in the trace for an assumption Unsat")
		}
		wantLemma := map[int]bool{}
		for _, d := range coreInts {
			wantLemma[-d] = true
		}
		gotLemma := map[int]bool{}
		for _, l := range verdict {
			gotLemma[l] = true
		}
		if len(wantLemma) != len(gotLemma) {
			t.Fatalf("terminal lemma %v does not match negated core %v", verdict, coreInts)
		}
		for d := range wantLemma {
			if !gotLemma[d] {
				t.Fatalf("terminal lemma %v does not match negated core %v", verdict, coreInts)
			}
		}
	})
}

// decodeDiff turns fuzz bytes into a small CNF: byte 0 picks the
// variable count (1..8), byte 1 the assumption count (0..2, drawn from
// the tail), and the rest encode clauses as a length byte (1..4 lits)
// followed by literal bytes, up to 24 clauses.
func decodeDiff(data []byte) (nVars int, clauses [][]int, assume []int) {
	if len(data) < 2 {
		return 0, nil, nil
	}
	nVars = int(data[0])%8 + 1
	nAssume := int(data[1]) % 3
	decodeLit := func(b byte) int {
		v := int(b) % (2 * nVars)
		l := v/2 + 1
		if v%2 == 1 {
			l = -l
		}
		return l
	}
	for i := 2; i < len(data) && len(clauses) < 24; {
		n := int(data[i])%4 + 1
		i++
		var cl []int
		for j := 0; j < n && i < len(data); j++ {
			cl = append(cl, decodeLit(data[i]))
			i++
		}
		if len(cl) > 0 {
			clauses = append(clauses, cl)
		}
	}
	for i := 0; i < nAssume && i < len(data); i++ {
		assume = append(assume, decodeLit(data[len(data)-1-i]))
	}
	return nVars, clauses, assume
}

// bruteSat enumerates all assignments over nVars variables and reports
// whether one satisfies every clause and every forced literal.
func bruteSat(nVars int, clauses [][]int, forced []int) bool {
	holds := func(m uint, l int) bool {
		bit := m>>(abs(l)-1)&1 == 1
		return bit == (l > 0)
	}
	for m := uint(0); m < 1<<nVars; m++ {
		ok := true
		for _, l := range forced {
			if !holds(m, l) {
				ok = false
				break
			}
		}
		for _, cl := range clauses {
			if !ok {
				break
			}
			sat := false
			for _, l := range cl {
				if holds(m, l) {
					sat = true
					break
				}
			}
			ok = sat
		}
		if ok {
			return true
		}
	}
	return false
}

// mustCheckTrace replays the trace through the independent checker in
// internal/drat and fails the test on any rejected operation.
func mustCheckTrace(t *testing.T, tr *Trace) *drat.Checker {
	t.Helper()
	ops := make([]drat.Op, 0, tr.Len())
	for i := 0; i < tr.Len(); i++ {
		op := tr.Op(i)
		lits := make([]int, len(op.Lits))
		for j, l := range op.Lits {
			d := int(l.Var()) + 1
			if !l.IsPos() {
				d = -d
			}
			lits[j] = d
		}
		var k drat.OpKind
		switch op.Kind {
		case ProofInput:
			k = drat.Input
		case ProofLearn:
			k = drat.Learn
		default:
			k = drat.Delete
		}
		ops = append(ops, drat.Op{Kind: k, Lits: lits})
	}
	c, err := drat.Check(ops)
	if err != nil {
		t.Fatalf("proof rejected: %v", err)
	}
	return c
}

// lastLearnOp returns the literals (as DIMACS ints) of the last Learn
// operation in the trace, or nil if there is none.
func lastLearnOp(tr *Trace) []int {
	for i := tr.Len() - 1; i >= 0; i-- {
		op := tr.Op(i)
		if op.Kind != ProofLearn {
			continue
		}
		out := make([]int, len(op.Lits))
		for j, l := range op.Lits {
			d := int(l.Var()) + 1
			if !l.IsPos() {
				d = -d
			}
			out[j] = d
		}
		return out
	}
	return nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
