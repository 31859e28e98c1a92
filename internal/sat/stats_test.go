package sat

import "testing"

// TestCloneStatsStartZeroed pins the merging contract Clone documents:
// a clone's work counters start at zero (so they merge additively into
// session totals) while the structural gauges carry over.
func TestCloneStatsStartZeroed(t *testing.T) {
	s := NewSolver()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	if st := s.Solve(); st != Sat {
		t.Fatalf("setup solve: %v", st)
	}
	c := s.Clone()
	if c.Stats.Solves != 0 || c.Stats.Conflicts != 0 || c.Stats.Propagations != 0 {
		t.Fatalf("clone work counters not zeroed: %+v", c.Stats)
	}
	if c.Stats.MaxVars != s.Stats.MaxVars || c.Stats.Clauses != s.Stats.Clauses {
		t.Fatalf("clone gauges diverge: %+v vs %+v", c.Stats, s.Stats)
	}
}
