// Package sat implements a CDCL (conflict-driven clause learning)
// boolean satisfiability solver in the MiniSat tradition: two-watched
// literals, first-UIP conflict analysis with clause learning and
// non-chronological backjumping, VSIDS-style branching activity, phase
// saving, and Luby restarts.
//
// The solver is the decision engine underneath internal/smt, which
// bit-blasts the finite-domain constraints produced by the network
// synthesizer and the explanation pipeline. It is deliberately
// dependency-free (standard library only).
package sat

import "fmt"

// Var is a propositional variable index. Variables are dense,
// zero-based integers handed out by Solver.NewVar.
type Var int

// Lit is a literal: a variable together with a polarity. Internally a
// literal is 2*v for the positive literal and 2*v+1 for the negative
// one, which makes negation a single XOR and lets literals index
// watch lists directly.
type Lit int

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1 | 1) }

// MkLit returns the literal of v with the given polarity (true means
// positive).
func MkLit(v Var, positive bool) Lit {
	if positive {
		return PosLit(v)
	}
	return NegLit(v)
}

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// IsPos reports whether l is the positive literal of its variable.
func (l Lit) IsPos() bool { return l&1 == 0 }

// Neg returns the complement of l.
func (l Lit) Neg() Lit { return l ^ 1 }

// String renders the literal as "x3" or "!x3".
func (l Lit) String() string {
	if l.IsPos() {
		return fmt.Sprintf("x%d", l.Var())
	}
	return fmt.Sprintf("!x%d", l.Var())
}

// LBool is a three-valued boolean: true, false, or undefined.
type LBool int8

const (
	// LUndef means the variable is unassigned.
	LUndef LBool = iota
	// LTrue means the variable is assigned true.
	LTrue
	// LFalse means the variable is assigned false.
	LFalse
)

// String renders the three-valued boolean.
func (b LBool) String() string {
	switch b {
	case LTrue:
		return "true"
	case LFalse:
		return "false"
	default:
		return "undef"
	}
}

func boolToLBool(b bool) LBool {
	if b {
		return LTrue
	}
	return LFalse
}

// Status is the result of a Solve call.
type Status int

const (
	// Unknown is returned when SolveContext's context was cancelled
	// or expired before the instance was decided.
	Unknown Status = iota
	// Sat means a satisfying assignment was found (readable via Value).
	Sat
	// Unsat means the instance (under the given assumptions, if any)
	// is unsatisfiable.
	Unsat
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}
