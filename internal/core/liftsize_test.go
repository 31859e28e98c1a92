package core

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/synth"
)

// TestLiftEntrySize pins the report cache's accounting of a lift entry:
// every logic.Term slice element counts at the interface value's 16
// bytes (the raw seed and each path's edge conditions), on top of the
// fixed headers, hole variables, path strings and lifted block.
func TestLiftEntrySize(t *testing.T) {
	p, q := logic.NewBoolVar("p"), logic.NewBoolVar("q")
	ent := &liftEntry{
		seed:  []logic.Term{p, q, logic.And(p, q)},
		holes: map[string]*logic.Var{"p": p, "q": q},
		paths: []synth.PathInfo{
			{Prefix: "10.0.0.0/24", Path: []string{"A", "B", "C"}, EdgeConds: []logic.Term{p, q}},
			{Prefix: "10.0.1.0/24", Path: []string{"A", "B"}, EdgeConds: []logic.Term{q}},
		},
	}
	want := int64(256) + // headers
		3*16 + // seed
		2*48 + // holes
		(96 + 11 + 2*16 + 3*(24+1)) + // first path
		(96 + 11 + 1*16 + 2*(24+1)) // second path
	if got := ent.size(); got != want {
		t.Fatalf("size() = %d, want %d", got, want)
	}
}
