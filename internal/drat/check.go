// Package drat independently validates the proof traces emitted by the
// CDCL solver in internal/sat. It shares no code with the solver: the
// checker keeps its own clause database over plain DIMACS-style integer
// literals and re-derives every lemma by reverse unit propagation
// (RUP), so a bug in the solver's propagation, conflict analysis, or
// clause management cannot also hide in the check.
//
// A trace is a sequence of operations (see Op):
//
//   - Input: a clause the caller asserted — the formula under test.
//   - Learn: a clause the solver claims to have derived. The checker
//     accepts it only if it is a RUP consequence of the live clauses:
//     assuming the negation of every literal and unit-propagating must
//     yield a conflict.
//   - Delete: a clause the solver dropped, so the checker's database
//     tracks the solver's.
//
// The final Learn of an unsatisfiability proof is either the empty
// clause (plain Unsat) or the negation of the assumption core
// (Unsat under assumptions); both are checked like any other lemma.
package drat

import (
	"fmt"
	"sort"
)

// OpKind discriminates trace operations.
type OpKind uint8

const (
	// Input is a caller-asserted clause.
	Input OpKind = iota
	// Learn is a solver-derived clause, subject to the RUP check.
	Learn
	// Delete removes a clause from the live database.
	Delete
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case Input:
		return "input"
	case Learn:
		return "learn"
	default:
		return "delete"
	}
}

// Op is one trace operation over DIMACS-style literals: nonzero
// integers, where -l is the negation of l and variables are 1-based.
type Op struct {
	Kind OpKind
	Lits []int
}

// value codes in the checker's partial assignment.
const (
	vUndef int8 = 0
	vTrue  int8 = 1
	vFalse int8 = -1
)

// clauseRec is one stored clause.
type clauseRec struct {
	lits  []int // as given
	alive bool
}

// Checker maintains the live clause database and a root-level
// assignment (the fixpoint of unit propagation over the live clauses),
// and answers RUP queries against it.
type Checker struct {
	clauses []clauseRec
	bySig   map[string][]int // sorted-lits key -> clause ids (live and dead)

	// watches[litIdx(l)] lists clauses watching l: clauses visit this
	// list when l becomes false.
	watches [][]int

	nVars  int
	val    []int8 // 1-based by variable
	trail  []int  // literals, in assignment order
	reason []int  // 1-based by variable: clause id, or -1 for assumed
	qhead  int

	// rootEnd is the length of the permanent (root) prefix of the
	// trail; everything above it belongs to an in-flight RUP query.
	rootEnd int
	// rootConflict is set once the live database is conflicting at the
	// root: every clause is then trivially RUP.
	rootConflict bool
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{bySig: make(map[string][]int)}
}

// RootConflict reports whether the live database is already
// conflicting at the root (the empty clause has been established).
func (c *Checker) RootConflict() bool { return c.rootConflict }

func litIdx(l int) int {
	if l > 0 {
		return 2 * l
	}
	return -2*l + 1
}

func litVar(l int) int {
	if l > 0 {
		return l
	}
	return -l
}

// ensureVar grows the assignment structures to cover variable v.
func (c *Checker) ensureVar(v int) {
	if v <= c.nVars {
		return
	}
	c.nVars = v
	for len(c.val) <= v {
		c.val = append(c.val, vUndef)
	}
	for len(c.reason) <= v {
		c.reason = append(c.reason, -1)
	}
	for len(c.watches) <= 2*v+1 {
		c.watches = append(c.watches, nil)
	}
}

func (c *Checker) value(l int) int8 {
	v := c.val[litVar(l)]
	if v == vUndef || l > 0 {
		return v
	}
	return -v
}

// assign makes l true with the given reason clause id (-1: assumed).
func (c *Checker) assign(l int, reason int) {
	c.val[litVar(l)] = int8(1)
	if l < 0 {
		c.val[litVar(l)] = int8(-1)
	}
	c.reason[litVar(l)] = reason
	c.trail = append(c.trail, l)
}

// unassignTo rolls the trail back to the given length.
func (c *Checker) unassignTo(n int) {
	for i := len(c.trail) - 1; i >= n; i-- {
		v := litVar(c.trail[i])
		c.val[v] = vUndef
		c.reason[v] = -1
	}
	c.trail = c.trail[:n]
	if c.qhead > n {
		c.qhead = n
	}
}

// sig builds the sorted-deduplicated lookup key for a clause.
func sig(lits []int) (string, []int) {
	sorted := append([]int(nil), lits...)
	sort.Ints(sorted)
	out := sorted[:0]
	for i, l := range sorted {
		if i > 0 && sorted[i-1] == l {
			continue
		}
		out = append(out, l)
	}
	sorted = out
	b := make([]byte, 0, 8*len(sorted))
	for _, l := range sorted {
		b = appendInt(b, l)
		b = append(b, ' ')
	}
	return string(b), sorted
}

func appendInt(b []byte, n int) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// validate rejects malformed literals.
func validate(lits []int) error {
	for _, l := range lits {
		if l == 0 {
			return fmt.Errorf("drat: literal 0 in clause %v", lits)
		}
	}
	return nil
}

// addClause stores a clause, sets up its watches, and performs any
// root-level propagation it triggers.
func (c *Checker) addClause(lits []int) error {
	if err := validate(lits); err != nil {
		return err
	}
	key, sorted := sig(lits)
	for _, l := range sorted {
		c.ensureVar(litVar(l))
	}
	id := len(c.clauses)
	c.clauses = append(c.clauses, clauseRec{
		lits:  append([]int(nil), lits...),
		alive: true,
	})
	c.bySig[key] = append(c.bySig[key], id)

	if c.rootConflict {
		return nil
	}
	// Tautologies (l and -l both present) are always satisfied and
	// never propagate; store them without watches. sorted is strictly
	// increasing, so look each positive literal's negation up directly.
	for _, l := range sorted {
		if l > 0 {
			i := sort.SearchInts(sorted, -l)
			if i < len(sorted) && sorted[i] == -l {
				return nil
			}
		}
	}
	switch len(sorted) {
	case 0:
		c.rootConflict = true
		return nil
	case 1:
		l := sorted[0]
		switch c.value(l) {
		case vFalse:
			c.rootConflict = true
		case vUndef:
			c.assign(l, id)
			if c.propagate() {
				c.rootConflict = true
			}
			c.rootEnd = len(c.trail)
		}
		return nil
	}
	// Watch two distinct non-false literals when possible; a clause
	// unit under the root assignment propagates immediately, an
	// all-false clause conflicts. Note cl.lits may hold duplicate
	// literals (inputs are logged pre-simplification), so the second
	// watch must be a *different literal*, not just a different slot.
	cl := &c.clauses[id]
	w0, w1 := -1, -1
	for i := range cl.lits {
		if c.value(cl.lits[i]) == vFalse {
			continue
		}
		if w0 < 0 {
			w0 = i
		} else if cl.lits[i] != cl.lits[w0] {
			w1 = i
			break
		}
	}
	if w0 < 0 {
		// Every literal false at root.
		c.rootConflict = true
		return nil
	}
	unit := w1 < 0
	if unit {
		// Exactly one distinct non-false literal: watch it plus an
		// arbitrary other slot so the clause stays indexed. The second
		// watch may be root-false, which is safe: root assignments are
		// never undone, so its watch list is never visited again.
		w1 = 0
		if w1 == w0 {
			w1 = 1
		}
	}
	cl.lits[0], cl.lits[w0] = cl.lits[w0], cl.lits[0]
	if w1 == 0 {
		w1 = w0
	}
	cl.lits[1], cl.lits[w1] = cl.lits[w1], cl.lits[1]
	c.watches[litIdx(cl.lits[0])] = append(c.watches[litIdx(cl.lits[0])], id)
	c.watches[litIdx(cl.lits[1])] = append(c.watches[litIdx(cl.lits[1])], id)
	if unit && c.value(cl.lits[0]) == vUndef {
		c.assign(cl.lits[0], id)
		if c.propagate() {
			c.rootConflict = true
		}
		c.rootEnd = len(c.trail)
	}
	return nil
}

// propagate runs unit propagation from the current queue head and
// reports whether it reached a conflict.
func (c *Checker) propagate() bool {
	for c.qhead < len(c.trail) {
		p := c.trail[c.qhead] // p just became true; visit watchers of -p
		c.qhead++
		falseLit := -p
		ws := c.watches[litIdx(falseLit)]
		kept := ws[:0]
		conflict := false
		for i := 0; i < len(ws); i++ {
			id := ws[i]
			cl := &c.clauses[id]
			if !cl.alive {
				continue // lazily dropped from the watch list
			}
			if cl.lits[0] == falseLit {
				cl.lits[0], cl.lits[1] = cl.lits[1], cl.lits[0]
			}
			first := cl.lits[0]
			if c.value(first) == vTrue {
				kept = append(kept, id)
				continue
			}
			moved := false
			for k := 2; k < len(cl.lits); k++ {
				// The replacement must be a literal distinct from the
				// other watch: clauses may hold duplicate literals
				// (inputs are logged pre-simplification), and watching
				// the same literal in both slots would hide the clause
				// from unit detection when that literal is falsified.
				if c.value(cl.lits[k]) != vFalse && cl.lits[k] != cl.lits[0] {
					cl.lits[1], cl.lits[k] = cl.lits[k], cl.lits[1]
					c.watches[litIdx(cl.lits[1])] = append(c.watches[litIdx(cl.lits[1])], id)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, id)
			if c.value(first) == vFalse {
				conflict = true
				for i++; i < len(ws); i++ {
					kept = append(kept, ws[i])
				}
				c.qhead = len(c.trail)
				break
			}
			c.assign(first, id)
		}
		c.watches[litIdx(falseLit)] = kept
		if conflict {
			return true
		}
	}
	return false
}

// AddInput adds a caller-asserted clause to the database.
func (c *Checker) AddInput(lits []int) error {
	return c.addClause(lits)
}

// CheckLearn verifies that the clause is a RUP consequence of the live
// database and, on success, adds it. The empty clause checks out
// exactly when the database already conflicts at the root.
func (c *Checker) CheckLearn(lits []int) error {
	if err := validate(lits); err != nil {
		return err
	}
	if err := c.rup(lits); err != nil {
		return err
	}
	return c.addClause(lits)
}

// rup performs the reverse-unit-propagation check: assume the negation
// of every literal, propagate, and demand a conflict. The assignment is
// rolled back either way.
func (c *Checker) rup(lits []int) error {
	if c.rootConflict {
		return nil // anything follows from a contradiction
	}
	mark := len(c.trail)
	defer c.unassignTo(mark)
	for _, l := range lits {
		c.ensureVar(litVar(l))
		switch c.value(l) {
		case vTrue:
			// Assuming -l contradicts the root assignment directly.
			return nil
		case vUndef:
			c.assign(-l, -1)
		}
		// Already false: -l holds, nothing to assume.
	}
	c.qhead = mark
	if !c.propagate() {
		return fmt.Errorf("drat: clause %v is not a RUP consequence", lits)
	}
	return nil
}

// CheckDelete removes the clause from the live database. Deleting a
// clause that is the reason of a root-level assignment is skipped (the
// assignment would otherwise outlive its justification and let the
// checker accept propagations the remaining clauses cannot make — the
// same safeguard standard DRAT trimmers apply). Deleting an unknown
// clause is an error: the solver claimed to drop something it never
// had.
func (c *Checker) CheckDelete(lits []int) error {
	if err := validate(lits); err != nil {
		return err
	}
	key, _ := sig(lits)
	ids := c.bySig[key]
	for _, id := range ids {
		if !c.clauses[id].alive {
			continue
		}
		if !c.isRootReason(id) { // keep a root assignment's justification
			c.clauses[id].alive = false
		}
		return nil
	}
	return fmt.Errorf("drat: delete of unknown clause %v", lits)
}

// isRootReason reports whether the clause justifies a root assignment.
func (c *Checker) isRootReason(id int) bool {
	for i := 0; i < c.rootEnd && i < len(c.trail); i++ {
		if c.reason[litVar(c.trail[i])] == id {
			return true
		}
	}
	return false
}

// Apply dispatches one trace operation.
func (c *Checker) Apply(op Op) error {
	switch op.Kind {
	case Input:
		return c.AddInput(op.Lits)
	case Learn:
		return c.CheckLearn(op.Lits)
	case Delete:
		return c.CheckDelete(op.Lits)
	}
	return fmt.Errorf("drat: unknown op kind %d", op.Kind)
}

// Check replays a whole trace through a fresh checker, verifying every
// lemma. It returns the checker (RootConflict tells whether the trace
// derived the empty clause) and the first verification failure,
// annotated with its position.
func Check(ops []Op) (*Checker, error) {
	c := NewChecker()
	for i, op := range ops {
		if err := c.Apply(op); err != nil {
			return c, fmt.Errorf("op %d (%s): %w", i, op.Kind, err)
		}
	}
	return c, nil
}
