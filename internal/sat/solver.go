package sat

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Stats counts solver work, exposed for the benchmark harness.
type Stats struct {
	Solves       uint64 // Solve / SolveContext calls
	Decisions    uint64
	Propagations uint64
	Conflicts    uint64
	Restarts     uint64
	Learnt       uint64
	// MinimizedLits totals the literals removed from learnt clauses by
	// deep (recursive) minimization.
	MinimizedLits uint64
	// LBDSum totals the LBD (glue) of every stored learnt clause, so
	// LBDSum/Learnt is the mean glue. LBDHist buckets stored learnt
	// clauses by LBD: index i counts clauses of LBD i+1, with the last
	// bucket collecting everything at or above len(LBDHist).
	LBDSum  uint64
	LBDHist [8]uint64
	// Reductions counts reduceDB sweeps; RemovedClauses the learnt
	// clauses they deleted.
	Reductions     uint64
	RemovedClauses uint64
}

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
	// lbd is the literal block distance (glue) of a learnt clause: the
	// number of distinct decision levels among its literals when it was
	// derived. Zero for problem clauses.
	lbd int32
}

// watcher pairs a watching clause with a "blocker" literal: if the
// blocker is already true the clause is satisfied and need not be
// inspected. This is MiniSat's most important constant-factor trick.
type watcher struct {
	c       *clause
	blocker Lit
}

// lubyBase scales the restart schedule: the i-th search phase of a
// solve (0-based) runs until it has spent luby(lubyBase, i) conflicts,
// i.e. 100, 100, 200, 100, 100, 200, 400, ... Every solve starts the
// sequence over.
const lubyBase = 100

// varDecay is the VSIDS activity decay factor: smaller decays faster
// (more reactive branching).
const varDecay = 0.95

// Solver is a CDCL SAT solver. The zero value is not usable; create
// solvers with NewSolver. A Solver is not safe for concurrent use.
type Solver struct {
	ok      bool // false once the clause set is known unsat at level 0
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by Lit; every stored clause

	assigns  []LBool   // current assignment, by Var
	vals     []LBool   // literal-indexed shadow of assigns, by Lit
	level    []int     // decision level of each assigned var
	reason   []*clause // implying clause of each assigned var (nil for decisions)
	trail    []Lit
	trailLim []int // trail positions where each decision level starts
	qhead    int   // propagation queue head (index into trail)

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool // saved polarity per variable

	// targetPhase remembers the polarity each variable had on the
	// deepest trail seen (a near-model), and takes precedence over the
	// plain saved phase when branching; bestTrail is that depth,
	// re-armed per solve.
	targetPhase []LBool
	bestTrail   int

	seen       []bool
	analyzeBuf []Lit // scratch for conflict analysis

	// minimization scratch: the literals whose seen flags must be
	// cleared after analyze (learnt literals plus everything marked by
	// litRedundant), and the DFS stack of litRedundant.
	toClear  []Lit
	minStack []Lit

	// levelMark/levelStamp is a per-level epoch marker (computeLBD).
	// Stamps make clearing free.
	levelMark  []uint64
	levelStamp uint64

	// restartIdx is the index into the Luby restart schedule of the
	// current search phase, re-armed per solve.
	restartIdx uint64

	claInc float64

	assumptions []Lit
	core        []Lit   // filled when Solve(assumptions) returns Unsat
	model       []LBool // snapshot of the last Sat assignment

	// proof records the derivation trace when proof logging is on
	// (see SetProof); emptyLogged latches the terminal empty-clause
	// lemma so it is recorded exactly once.
	proof       *Trace
	emptyLogged bool

	Stats Stats
}

// NewSolver creates an empty solver.
func NewSolver() *Solver {
	s := &Solver{ok: true, varInc: 1.0, claInc: 1.0}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar introduces a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, LUndef)
	s.vals = append(s.vals, LUndef, LUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.targetPhase = append(s.targetPhase, LUndef)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.insert(v)
	return v
}

// NumVars reports how many variables have been created.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses reports how many problem clauses are currently held.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// value returns the truth of literal l under the current assignment.
// It reads the literal-indexed shadow of assigns: one load, no sign
// arithmetic — this is the hottest operation in the solver (blocker
// tests and watch scans in propagate), so the two extra writes per
// enqueue/unassign that keep the shadow current buy a measurable
// propagation speedup.
func (s *Solver) value(l Lit) LBool {
	return s.vals[l]
}

// Value returns the assignment of v in the most recent Sat model. It
// returns LUndef if no model is available.
func (s *Solver) Value(v Var) LBool {
	if int(v) >= len(s.model) {
		return LUndef
	}
	return s.model[v]
}

// ValueLit returns the truth of literal l in the most recent Sat model.
func (s *Solver) ValueLit(l Lit) LBool {
	v := s.Value(l.Var())
	if v == LUndef || l.IsPos() {
		return v
	}
	if v == LTrue {
		return LFalse
	}
	return LTrue
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It returns false if
// the solver becomes (or already was) unsatisfiable at the top level.
// The slice is copied, and the clause is simplified: duplicate literals
// are removed, tautologies dropped, and literals already false at level
// 0 deleted.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during search")
	}
	// Log the clause exactly as given: the proof's input set is what
	// the caller asserted, and every simplification below (dropping
	// false literals, collapsing to a unit) is a derivation the checker
	// reproduces by unit propagation on its own.
	s.logProof(ProofInput, lits)
	// Sort-free simplification over a small scratch copy.
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if int(l.Var()) >= len(s.assigns) {
			panic(fmt.Sprintf("sat: clause references unknown variable %d", l.Var()))
		}
		switch s.value(l) {
		case LTrue:
			return true // satisfied at level 0
		case LFalse:
			continue // cannot help
		}
		dup, taut := false, false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Neg() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		s.logEmptyClause()
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		s.ok = s.propagate() == nil
		if !s.ok {
			s.logEmptyClause()
		}
		return s.ok
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// attach indexes the clause for propagation: every stored clause (two
// or more literals) watches lits[0] and lits[1], each watcher carrying
// the other watched literal as its blocker. Watch lists are indexed by
// the *negation* of the watched literal so that when a literal becomes
// false we visit the clauses watching it.
func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], watcher{c: c, blocker: c.lits[1]})
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{c: c, blocker: c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assigns[v] = boolToLBool(l.IsPos())
	s.vals[l] = LTrue
	s.vals[l.Neg()] = LFalse
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal
// lists. A clause that becomes unit is the reason of its implied
// literal, which it keeps in lits[0]: conflict analysis and the
// locked-clause check rely on that. It returns the conflicting clause,
// or nil if propagation completed without conflict.
func (s *Solver) propagate() *clause {
	// Hoisted: vals is read on every watcher visit, and the compiler
	// cannot keep it in a register across the s.* method calls below.
	vals := s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true; visit clauses watching !p
		s.qhead++
		s.Stats.Propagations++

		ws := s.watches[p]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == LTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize so that lits[1] is the false literal !p.
			falseLit := p.Neg()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If the other watched literal is true, the clause is
			// satisfied; update the blocker.
			first := c.lits[0]
			if first != w.blocker && vals[first] == LTrue {
				kept = append(kept, watcher{c: c, blocker: first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			lits := c.lits
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != LFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watcher{c: c, blocker: first})
					found = true
					break
				}
			}
			if found {
				continue // watcher moved to another list
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c: c, blocker: first})
			if vals[first] == LFalse {
				// Conflict: keep remaining watchers and bail out.
				conflict = c
				for i++; i < len(ws); i++ {
					kept = append(kept, ws[i])
				}
				s.qhead = len(s.trail)
				break
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (with the asserting literal first), the backjump level, and
// the clause's LBD. The clause is minimized before it is returned:
// deep (recursive) minimization drops every literal implied by the
// rest of the clause through reason chains. That keeps the clause a RUP
// consequence of the database, so proof traces verify unchanged.
func (s *Solver) analyze(conflict *clause) ([]Lit, int, int32) {
	// Work in a persistent scratch buffer: the resolution loop grows
	// the clause literal by literal, and reallocating that growth on
	// every conflict is measurable. The caller gets an exact-sized
	// copy, since learnt clauses own their literal storage.
	learnt := append(s.analyzeBuf[:0], 0) // slot 0 for the asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	c := conflict

	for {
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason clause
		}
		if c.learnt {
			s.bumpClause(c)
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			learnt[0] = p.Neg()
			break
		}
		c = s.reason[v]
	}

	// The seen flags of every learnt literal — and everything
	// litRedundant marks below — must be cleared before returning.
	s.toClear = append(s.toClear[:0], learnt...)

	// Deep minimization: drop any literal implied by the remaining
	// marked literals through its reason chain, recursively. The
	// abstraction is MiniSat's level-set filter — a cheap necessary
	// condition that prunes most futile recursions.
	abstract := uint32(0)
	for _, q := range learnt[1:] {
		abstract |= 1 << uint(s.level[q.Var()]&31)
	}
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if s.reason[q.Var()] == nil || !s.litRedundant(q, abstract) {
			out = append(out, q)
		}
	}
	s.Stats.MinimizedLits += uint64(len(learnt) - len(out))
	learnt = out
	lbd := s.computeLBD(learnt)

	// Compute backjump level: the highest level among the non-asserting
	// literals, and move a literal of that level into slot 1 so it gets
	// watched.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}

	for _, q := range s.toClear {
		s.seen[q.Var()] = false
	}
	s.analyzeBuf = learnt[:0:cap(learnt)]
	res := make([]Lit, len(learnt))
	copy(res, learnt)
	return res, btLevel, lbd
}

// litRedundant reports whether literal q of the learnt clause is
// implied by the clause's remaining marked literals through reason
// chains (MiniSat's recursive minimization, with an explicit stack).
// Along the way it marks the intermediate literals it proved
// redundant, so overlapping chains are checked once; the marks are
// registered in s.toClear for the caller to clear. On failure every
// mark made by this call is rolled back.
func (s *Solver) litRedundant(q Lit, abstract uint32) bool {
	top := len(s.toClear)
	s.minStack = append(s.minStack[:0], q)
	for len(s.minStack) > 0 {
		p := s.minStack[len(s.minStack)-1]
		s.minStack = s.minStack[:len(s.minStack)-1]
		c := s.reason[p.Var()]
		for _, l := range c.lits[1:] {
			v := l.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == nil || 1<<uint(s.level[v]&31)&abstract == 0 {
				// A decision, or a level no clause literal shares:
				// cannot be absorbed. Undo this call's marks.
				for len(s.toClear) > top {
					s.seen[s.toClear[len(s.toClear)-1].Var()] = false
					s.toClear = s.toClear[:len(s.toClear)-1]
				}
				return false
			}
			s.seen[v] = true
			s.minStack = append(s.minStack, l)
			s.toClear = append(s.toClear, l)
		}
	}
	return true
}

// computeLBD counts the distinct decision levels among the literals —
// the literal block distance (glue) of Glucose. Level-0 literals are
// ignored (they are permanently satisfied facts).
func (s *Solver) computeLBD(lits []Lit) int32 {
	s.levelStamp++
	n := int32(0)
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv <= 0 {
			continue
		}
		for len(s.levelMark) <= lv {
			s.levelMark = append(s.levelMark, 0)
		}
		if s.levelMark[lv] != s.levelStamp {
			s.levelMark[lv] = s.levelStamp
			n++
		}
	}
	return n
}

// analyzeFinal computes the subset of assumptions responsible for
// forcing p false; used to build the unsat core when solving under
// assumptions.
func (s *Solver) analyzeFinal(p Lit) []Lit {
	out := []Lit{p}
	if s.decisionLevel() == 0 {
		return out
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == nil {
			// Decision: under assumption-driven search all decisions
			// above level 0 that appear in the cone are assumptions.
			out = append(out, s.trail[i].Neg())
		} else {
			for _, l := range s.reason[v].lits[1:] {
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[p.Var()] = false
	// Literal-level dedup: a repeated literal in the final clause would
	// surface the same assumption twice in the reported core. The cone
	// walk visits each trail entry once, so repeats should be
	// impossible by construction — this guards the invariant rather
	// than trusting it, since the core is what callers act on.
	dedup := out[:0]
	for _, l := range out {
		found := false
		for _, m := range dedup {
			if m == l {
				found = true
				break
			}
		}
		if !found {
			dedup = append(dedup, l)
		}
	}
	return dedup
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc *= 1.0 / varDecay }

func (s *Solver) bumpClause(c *clause) {
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc *= 1.0 / 0.999 }

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assigns[v] = LUndef
		s.vals[l] = LUndef
		s.vals[l.Neg()] = LUndef
		s.reason[v] = nil
		s.phase[v] = l.IsPos() // phase saving
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) pickBranchLit() Lit {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assigns[v] == LUndef {
			// Target phase saving: prefer the polarity the variable had
			// on the deepest trail seen during *this* solve — the
			// closest the current search has been to a model — over the
			// last-backtracked polarity.
			if tp := s.targetPhase[v]; tp != LUndef {
				return MkLit(v, tp == LTrue)
			}
			return MkLit(v, s.phase[v])
		}
	}
	return -1
}

// luby computes the Luby restart sequence value for index i (1-based),
// scaled by base.
func luby(base float64, i uint64) float64 {
	// Find the finite subsequence containing i, then the position.
	var size, seq uint64 = 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i = i % size
	}
	return base * math.Pow(2, float64(seq))
}

// locked reports whether the clause is the reason of a current
// assignment and therefore must not be deleted. Reason clauses lead
// with the literal they imply, so this is two loads and two compares —
// no per-reduction map.
func (s *Solver) locked(c *clause) bool {
	return s.value(c.lits[0]) == LTrue && s.reason[c.lits[0].Var()] == c
}

// reduceDB trims the learnt-clause database: clauses are ranked
// worst-first by (glue descending, activity ascending) and the worst
// half is deleted. Only binary clauses and locked clauses (reasons of
// current assignments) are immune: a binary clause's two watchers never
// relocate and block on its other literal, so keeping it costs two
// watch-list entries, while the implication it carries took a conflict
// to learn.
func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	s.Stats.Reductions++
	learnts := s.learnts
	sort.Slice(learnts, func(i, j int) bool {
		a, b := learnts[i], learnts[j]
		if a.lbd != b.lbd {
			return a.lbd > b.lbd
		}
		return a.activity < b.activity
	})
	target := len(learnts) / 2
	removed := 0
	keep := learnts[:0:0]
	for _, c := range learnts {
		if removed >= target || len(c.lits) == 2 || s.locked(c) {
			keep = append(keep, c)
			continue
		}
		s.detach(c)
		s.logProof(ProofDelete, c.lits)
		removed++
	}
	s.learnts = keep
	s.Stats.RemovedClauses += uint64(removed)
}

// detach removes the clause from the watch lists of lits[0] and
// lits[1].
func (s *Solver) detach(c *clause) {
	for _, wl := range []Lit{c.lits[0].Neg(), c.lits[1].Neg()} {
		ws := s.watches[wl]
		for i, w := range ws {
			if w.c == c {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// Solve decides satisfiability under the given assumption literals
// (which may be empty). On Sat, Value/ValueLit expose the model. On
// Unsat under assumptions, Core returns a subset of the assumptions
// that is already unsatisfiable.
func (s *Solver) Solve(assumptions ...Lit) Status {
	st, _ := s.SolveContext(context.Background(), assumptions...)
	return st
}

// SolveContext is Solve with cancellation: the context is checked
// inside the CDCL search loop (every few conflicts) and at every
// restart, so a cancelled or expired context aborts a running solve
// within one restart interval. On cancellation the status is Unknown
// and the error is the context's error; all other outcomes return a
// nil error.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) (Status, error) {
	s.Stats.Solves++
	// Clear the previous core before the early return below: Unsat on a
	// dead solver is unconditional, and a stale core from an earlier
	// assumption query would misattribute it.
	s.core = nil
	if !s.ok {
		return Unsat, nil
	}
	s.assumptions = assumptions
	defer s.cancelUntil(0)

	// Re-arm the restart schedule and the target-phase tracker.
	// Targets do not survive across solves: under incremental use
	// (clauses added between solves to exclude the last model,
	// shifting assumption sets) a stale target steers the search
	// straight back into the region the caller just forbade, and
	// measurably inflates conflicts. Plain phase saving carries the long-lived polarity
	// memory instead.
	s.bestTrail = 0
	s.restartIdx = 0
	for i := range s.targetPhase {
		s.targetPhase[i] = LUndef
	}

	maxLearnts := float64(len(s.clauses))/3 + 100
	for {
		if err := ctx.Err(); err != nil {
			return Unknown, err
		}
		st := s.search(ctx, &maxLearnts)
		if st == Sat {
			// Reuse the model buffer across solves: incremental
			// callers (the lift's checks) solve thousands of times per
			// second, and a fresh n-slot allocation per Sat
			// verdict is pure GC pressure. Model() hands out copies, so
			// no caller holds a reference into this buffer.
			if cap(s.model) < len(s.assigns) {
				s.model = make([]LBool, len(s.assigns))
			}
			s.model = s.model[:len(s.assigns)]
			copy(s.model, s.assigns)
			return Sat, nil
		}
		if st == Unsat {
			return Unsat, nil
		}
		if err := ctx.Err(); err != nil {
			return Unknown, err
		}
		s.restartIdx++
		s.Stats.Restarts++
	}
}

// Core returns the assumption subset returned by the last failing
// Solve-under-assumptions call. The slice is owned by the solver.
func (s *Solver) Core() []Lit { return s.core }

// ctxCheckInterval is how many search-loop iterations pass between
// context checks. Each iteration runs a full unit propagation, so the
// check adds no measurable overhead while still bounding the abort
// latency well below a restart interval.
const ctxCheckInterval = 64

// search runs CDCL until a result, a restart (once the phase has
// spent its Luby allotment of conflicts), or a cancelled context (both
// surface as Unknown; the caller re-checks the context).
func (s *Solver) search(ctx context.Context, maxLearnts *float64) Status {
	var conflicts, iter int64
	limit := int64(luby(lubyBase, s.restartIdx))
	for {
		if iter%ctxCheckInterval == 0 && ctx.Err() != nil {
			s.cancelUntil(0)
			return Unknown
		}
		iter++
		conflict := s.propagate()
		if conflict != nil {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				s.logEmptyClause()
				return Unsat
			}
			// Target phase saving: a conflict trail is a local maximum
			// of the search's progress; remember the deepest one as the
			// branching target.
			if len(s.trail) > s.bestTrail {
				s.bestTrail = len(s.trail)
				for _, l := range s.trail {
					s.targetPhase[l.Var()] = boolToLBool(l.IsPos())
				}
			}
			learnt, btLevel, lbd := s.analyze(conflict)
			// Every learnt clause — unit or not — is a lemma: the
			// checker needs units too, because the solver keeps them
			// only as trail assignments, never as clauses.
			s.logProof(ProofLearn, learnt)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, lbd: lbd}
				s.learnts = append(s.learnts, c)
				s.Stats.Learnt++
				s.Stats.LBDSum += uint64(lbd)
				bucket := int(lbd) - 1
				if bucket < 0 {
					bucket = 0
				} else if bucket >= len(s.Stats.LBDHist) {
					bucket = len(s.Stats.LBDHist) - 1
				}
				s.Stats.LBDHist[bucket]++
				s.attach(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayVar()
			s.decayClause()
			continue
		}

		// No conflict. A restart is due once the phase's allotment is
		// spent.
		if conflicts >= limit {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(len(s.learnts)) >= *maxLearnts {
			s.reduceDB()
			*maxLearnts *= 1.1
		}

		// Assumption-driven decisions first.
		next := Lit(-1)
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case LTrue:
				// Already satisfied: open an empty decision level so
				// the level-to-assumption mapping stays aligned.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case LFalse:
				clause := s.analyzeFinal(p.Neg())
				// The negated-assumption clause certifies the verdict:
				// it is a RUP consequence of the clause database, and
				// its literals' negations are the unsat core.
				s.logProof(ProofLearn, clause)
				s.core = make([]Lit, 0, len(clause))
				// analyzeFinal returns negations of failed assumption
				// literals; report the assumptions themselves.
				for _, l := range clause {
					s.core = append(s.core, l.Neg())
				}
				return Unsat
			default:
				next = p
			}
			break
		}
		if next == -1 {
			next = s.pickBranchLit()
			if next == -1 {
				return Sat // all variables assigned
			}
			s.Stats.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, nil)
	}
}

// Model returns a copy of the last satisfying assignment as a slice of
// booleans indexed by variable. Call only after Solve returned Sat.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	for v := range s.model {
		m[v] = s.model[v] == LTrue
	}
	return m
}
