package sat

// Clone returns a warm snapshot of the solver: problem clauses, learnt
// clauses, variable activities, saved phases, clause activities, and
// level-0 assignments are all carried over, so the clone resumes search
// with everything the original has learned instead of starting cold.
// This is what makes per-worker solvers cheap — one shared encode, one
// memcpy-style snapshot per worker.
//
// Clone must be called outside search (decision level 0), which is
// always the case between Solve calls: Solve backtracks to level 0
// before returning, and AddClause refuses to run mid-search.
//
// Carrying learnt clauses over is sound for any future assumption set:
// a learnt clause is derived by resolution over reason clauses only,
// and assumptions enter the search as decisions (nil reason), never as
// reasons — so every learnt is a logical consequence of the problem
// clauses alone. The one obligation on callers is the same one the
// solver already imposes: problem clauses are only ever added, never
// removed.
//
// The clone shares no mutable state with the original (clauses are
// deep-copied, watch lists remapped), so original and clone may be
// driven from different goroutines afterwards — each individually
// remains non-concurrency-safe.
//
// The clone's cumulative work counters (Solves, Conflicts, ...) start
// at zero so per-clone effort can be merged additively into session
// statistics; the structural gauges (MaxVars, Clauses) carry over.
func (s *Solver) Clone() *Solver {
	if s.decisionLevel() != 0 {
		panic("sat: Clone called during search")
	}
	c := &Solver{
		ok:             s.ok,
		varInc:         s.varInc,
		claInc:         s.claInc,
		qhead:          s.qhead,
		ConflictBudget: s.ConflictBudget,
		emptyLogged:    s.emptyLogged,
	}
	// A clone inherits the original's learnt clauses, so its proof
	// trace must replay their derivations: fork the writer when it
	// supports forking, otherwise the clone runs without logging (a
	// trace that silently missed the inherited lemmas would be worse
	// than none — the checker would reject every proof built on them).
	if pc, ok := s.proof.(ProofCloner); ok {
		c.proof = pc.CloneProof()
	}

	// Deep-copy the clause database, remembering old -> new pointers so
	// watch lists and level-0 reasons can be remapped.
	remap := make(map[*clause]*clause, len(s.clauses)+len(s.learnts))
	cloneClause := func(cl *clause) *clause {
		cc := &clause{lits: append([]Lit(nil), cl.lits...), learnt: cl.learnt, activity: cl.activity, lbd: cl.lbd, protect: cl.protect}
		remap[cl] = cc
		return cc
	}
	c.clauses = make([]*clause, len(s.clauses))
	for i, cl := range s.clauses {
		c.clauses[i] = cloneClause(cl)
	}
	c.learnts = make([]*clause, len(s.learnts))
	for i, cl := range s.learnts {
		c.learnts[i] = cloneClause(cl)
	}
	c.watches = make([][]watcher, len(s.watches))
	for i, ws := range s.watches {
		if len(ws) == 0 {
			continue
		}
		cw := make([]watcher, len(ws))
		for j, w := range ws {
			cw[j] = watcher{c: remap[w.c], blocker: w.blocker}
		}
		c.watches[i] = cw
	}
	c.bins = make([][]binWatch, len(s.bins))
	for i, bs := range s.bins {
		if len(bs) == 0 {
			continue
		}
		cb := make([]binWatch, len(bs))
		for j, b := range bs {
			cb[j] = binWatch{other: b.other, c: remap[b.c]}
		}
		c.bins[i] = cb
	}
	c.terns = make([][]ternWatch, len(s.terns))
	for i, ts := range s.terns {
		if len(ts) == 0 {
			continue
		}
		ct := make([]ternWatch, len(ts))
		for j, t := range ts {
			ct[j] = ternWatch{o1: t.o1, o2: t.o2, c: remap[t.c]}
		}
		c.terns[i] = ct
	}

	c.assigns = append([]LBool(nil), s.assigns...)
	c.vals = append([]LBool(nil), s.vals...)
	c.level = append([]int(nil), s.level...)
	c.reason = make([]*clause, len(s.reason))
	for i, r := range s.reason {
		if r != nil {
			c.reason[i] = remap[r]
		}
	}
	c.trail = append([]Lit(nil), s.trail...)
	c.trailLim = append([]int(nil), s.trailLim...)
	c.activity = append([]float64(nil), s.activity...)
	c.phase = append([]bool(nil), s.phase...)
	c.targetPhase = append([]LBool(nil), s.targetPhase...)
	c.seen = make([]bool, len(s.seen))
	c.litMark = make([]uint64, len(s.litMark))
	c.model = append([]LBool(nil), s.model...)

	// Restart state carries over: the clone continues the original's
	// view of "normal" glue rather than re-warming from scratch.
	c.lbdEmaFast = s.lbdEmaFast
	c.lbdEmaSlow = s.lbdEmaSlow
	c.trailEma = s.trailEma
	c.emaConfl = s.emaConfl

	// Copy the branching heap verbatim (same activities, same layout)
	// so original and clone branch identically until their inputs
	// diverge.
	c.order = newVarHeap(&c.activity)
	c.order.heap = append([]Var(nil), s.order.heap...)
	c.order.indices = append([]int(nil), s.order.indices...)

	c.Stats = Stats{MaxVars: s.Stats.MaxVars, Clauses: s.Stats.Clauses}
	return c
}
