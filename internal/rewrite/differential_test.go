package rewrite

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/logic"
)

// This file pins the memoized one-shot normalizer against a reference
// implementation of the original pass-until-fixpoint driver (kept here,
// test-only, as the executable specification of the fifteen rules).
// Both implementations must agree on the MEANING of every term —
// checked by evaluating under assignments — though they may disagree
// on the exact syntactic normal form reached.

// refSimplifier is the original fixpoint simplifier: a full bottom-up
// rewrite of the whole term per pass, plus a conjunction-level
// equality-propagation pass, repeated until the term stops changing.
type refSimplifier struct {
	maxPasses int
}

func newRef() *refSimplifier { return &refSimplifier{maxPasses: 64} }

func (s *refSimplifier) simplify(t logic.Term) logic.Term {
	cur := t
	for pass := 0; pass < s.maxPasses; pass++ {
		memo := make(map[logic.Term]logic.Term)
		next := s.mapMemo(cur, memo)
		next = s.propagateEqualities(next)
		if logic.Equal(next, cur) {
			return next
		}
		cur = next
	}
	return cur
}

func (s *refSimplifier) mapMemo(t logic.Term, memo map[logic.Term]logic.Term) logic.Term {
	t = logic.Intern(t)
	if r, ok := memo[t]; ok {
		return r
	}
	out := t
	if n, ok := t.(*logic.Apply); ok {
		changed := false
		args := make([]logic.Term, len(n.Args))
		for i, a := range n.Args {
			args[i] = s.mapMemo(a, memo)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			out = logic.Intern(&logic.Apply{Op: n.Op, Args: args})
		}
	}
	out = s.node(out)
	memo[t] = out
	return out
}

func (s *refSimplifier) node(t logic.Term) logic.Term {
	a, ok := t.(*logic.Apply)
	if !ok {
		return t
	}
	switch a.Op {
	case logic.OpNot:
		return s.refNot(a)
	case logic.OpAnd:
		return s.refNary(a, logic.OpAnd)
	case logic.OpOr:
		return s.refNary(a, logic.OpOr)
	case logic.OpImplies:
		l, r := a.Args[0], a.Args[1]
		switch {
		case logic.IsFalse(l), logic.IsTrue(r):
			return logic.True
		case logic.IsTrue(l):
			return r
		case logic.IsFalse(r):
			return s.node(logic.Not(l))
		case logic.Equal(l, r):
			return logic.True
		}
	case logic.OpIff:
		l, r := a.Args[0], a.Args[1]
		switch {
		case logic.Equal(l, r):
			return logic.True
		case logic.IsTrue(l):
			return r
		case logic.IsTrue(r):
			return l
		case logic.IsFalse(l):
			return s.node(logic.Not(r))
		case logic.IsFalse(r):
			return s.node(logic.Not(l))
		case refIsComplement(l, r):
			return logic.False
		}
	case logic.OpIte:
		c, thn, els := a.Args[0], a.Args[1], a.Args[2]
		switch {
		case logic.IsTrue(c):
			return thn
		case logic.IsFalse(c):
			return els
		case logic.Equal(thn, els):
			return thn
		case thn.Sort().IsBool() && logic.IsTrue(thn) && logic.IsFalse(els):
			return c
		case thn.Sort().IsBool() && logic.IsFalse(thn) && logic.IsTrue(els):
			return s.node(logic.Not(c))
		}
	case logic.OpEq, logic.OpNe:
		return s.refEq(a)
	case logic.OpLt, logic.OpLe, logic.OpGt, logic.OpGe:
		return s.refCmp(a)
	}
	return t
}

func (s *refSimplifier) refNot(a *logic.Apply) logic.Term {
	arg := a.Args[0]
	if logic.IsTrue(arg) {
		return logic.False
	}
	if logic.IsFalse(arg) {
		return logic.True
	}
	inner, ok := arg.(*logic.Apply)
	if !ok {
		return a
	}
	switch inner.Op {
	case logic.OpNot:
		return inner.Args[0]
	case logic.OpEq:
		return logic.Ne(inner.Args[0], inner.Args[1])
	case logic.OpNe:
		return logic.Eq(inner.Args[0], inner.Args[1])
	case logic.OpLt:
		return logic.Ge(inner.Args[0], inner.Args[1])
	case logic.OpLe:
		return logic.Gt(inner.Args[0], inner.Args[1])
	case logic.OpGt:
		return logic.Le(inner.Args[0], inner.Args[1])
	case logic.OpGe:
		return logic.Lt(inner.Args[0], inner.Args[1])
	}
	return a
}

func (s *refSimplifier) refNary(a *logic.Apply, op logic.Op) logic.Term {
	identity, annihilator := logic.Term(logic.True), logic.Term(logic.False)
	inner := logic.OpOr
	if op == logic.OpOr {
		identity, annihilator = logic.False, logic.True
		inner = logic.OpAnd
	}
	args := make([]logic.Term, 0, len(a.Args))
	changed := false
	for _, arg := range a.Args {
		if logic.Equal(arg, identity) {
			changed = true
			continue
		}
		if logic.Equal(arg, annihilator) {
			return annihilator
		}
		if nested, ok := arg.(*logic.Apply); ok && nested.Op == op {
			changed = true
			args = append(args, nested.Args...)
			continue
		}
		args = append(args, arg)
	}
	if deduped := logic.DedupTerms(args); len(deduped) != len(args) {
		changed = true
		args = deduped
	}
	if refHasComplementPair(args) {
		return annihilator
	}
	if filtered, fired := refAbsorb(args, inner); fired {
		changed = true
		args = filtered
	}
	if !changed {
		return a
	}
	if op == logic.OpAnd {
		return logic.And(args...)
	}
	return logic.Or(args...)
}

func refHasComplementPair(args []logic.Term) bool {
	for i, x := range args {
		for _, y := range args[i+1:] {
			if refIsComplement(x, y) {
				return true
			}
		}
	}
	return false
}

func refIsComplement(x, y logic.Term) bool {
	if nx, ok := x.(*logic.Apply); ok && nx.Op == logic.OpNot && logic.Equal(nx.Args[0], y) {
		return true
	}
	if ny, ok := y.(*logic.Apply); ok && ny.Op == logic.OpNot && logic.Equal(ny.Args[0], x) {
		return true
	}
	return false
}

func refAbsorb(args []logic.Term, inner logic.Op) ([]logic.Term, bool) {
	fired := false
	out := make([]logic.Term, 0, len(args))
	for i, cand := range args {
		app, ok := cand.(*logic.Apply)
		absorbed := false
		if ok && app.Op == inner {
			for j, other := range args {
				if i == j {
					continue
				}
				for _, operand := range app.Args {
					if logic.Equal(operand, other) {
						absorbed = true
						break
					}
				}
				if absorbed {
					break
				}
			}
		}
		if absorbed {
			fired = true
			continue
		}
		out = append(out, cand)
	}
	return out, fired
}

func (s *refSimplifier) refEq(a *logic.Apply) logic.Term {
	l, r := a.Args[0], a.Args[1]
	ne := a.Op == logic.OpNe
	if logic.Equal(l, r) {
		return logic.NewBool(!ne)
	}
	if logic.IsLit(l) && logic.IsLit(r) {
		eq := literalsEqual(l, r)
		if ne {
			eq = !eq
		}
		return logic.NewBool(eq)
	}
	if l.Sort().IsBool() {
		if logic.IsTrue(l) || logic.IsTrue(r) || logic.IsFalse(l) || logic.IsFalse(r) {
			other, konst := l, r
			if logic.IsLit(l) {
				other, konst = r, l
			}
			truth := logic.IsTrue(konst)
			if ne {
				truth = !truth
			}
			if truth {
				return other
			}
			return s.node(logic.Not(other))
		}
	}
	if decided, val := domainDecidesEq(l, r); decided {
		if ne {
			val = !val
		}
		return logic.NewBool(val)
	}
	if ne {
		if folded := enumComplement(l, r); folded != nil {
			return folded
		}
		if folded := enumComplement(r, l); folded != nil {
			return folded
		}
	}
	return a
}

func (s *refSimplifier) refCmp(a *logic.Apply) logic.Term {
	l, r := a.Args[0], a.Args[1]
	ll, lok := l.(*logic.IntLit)
	rl, rok := r.(*logic.IntLit)
	if lok && rok {
		var v bool
		switch a.Op {
		case logic.OpLt:
			v = ll.Val < rl.Val
		case logic.OpLe:
			v = ll.Val <= rl.Val
		case logic.OpGt:
			v = ll.Val > rl.Val
		default:
			v = ll.Val >= rl.Val
		}
		return logic.NewBool(v)
	}
	if logic.Equal(l, r) {
		return logic.NewBool(a.Op == logic.OpLe || a.Op == logic.OpGe)
	}
	if lo1, hi1, ok1 := intRange(l); ok1 {
		if lo2, hi2, ok2 := intRange(r); ok2 {
			switch a.Op {
			case logic.OpLt:
				if hi1 < lo2 {
					return logic.True
				}
				if lo1 >= hi2 {
					return logic.False
				}
			case logic.OpLe:
				if hi1 <= lo2 {
					return logic.True
				}
				if lo1 > hi2 {
					return logic.False
				}
			case logic.OpGt:
				if lo1 > hi2 {
					return logic.True
				}
				if hi1 <= lo2 {
					return logic.False
				}
			case logic.OpGe:
				if lo1 >= hi2 {
					return logic.True
				}
				if hi1 < lo2 {
					return logic.False
				}
			}
		}
	}
	return a
}

// mapTerm rebuilds t bottom-up, applying f to every node after its
// children have been rebuilt. f receives a node whose children are
// already mapped and returns its replacement.
func mapTerm(t logic.Term, f func(logic.Term) logic.Term) logic.Term {
	n, ok := t.(*logic.Apply)
	if !ok {
		return f(t)
	}
	changed := false
	args := make([]logic.Term, len(n.Args))
	for i, a := range n.Args {
		args[i] = mapTerm(a, f)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return f(t)
	}
	// Intern the rebuilt node so f sees a canonical term (and memoizing
	// callers can key on it by pointer).
	return f(logic.Intern(&logic.Apply{Op: n.Op, Args: args}))
}

func (s *refSimplifier) propagateEqualities(t logic.Term) logic.Term {
	memo := make(map[logic.Term]logic.Term)
	return mapTerm(t, func(u logic.Term) logic.Term {
		a, ok := u.(*logic.Apply)
		if !ok || a.Op != logic.OpAnd {
			return u
		}
		bindings := map[string]logic.Term{}
		for _, c := range a.Args {
			if name, val, ok := unitBinding(c); ok {
				if _, dup := bindings[name]; !dup {
					bindings[name] = val
				}
			}
		}
		if len(bindings) == 0 {
			return u
		}
		changed := false
		args := make([]logic.Term, len(a.Args))
		for i, c := range a.Args {
			if name, _, ok := unitBinding(c); ok {
				sub := map[string]logic.Term{}
				for k, v := range bindings {
					if k != name {
						sub[k] = v
					}
				}
				args[i] = logic.Substitute(c, sub)
			} else {
				args[i] = logic.Substitute(c, bindings)
			}
			if args[i] != c {
				changed = true
			}
		}
		if !changed {
			return u
		}
		out := make([]logic.Term, len(args))
		for i, c := range args {
			out[i] = s.mapMemo(c, memo)
		}
		res := logic.And(out...)
		if ap, ok := res.(*logic.Apply); ok {
			return s.node(ap)
		}
		return res
	})
}

// equivalentUnderAllAssignments checks that a and b agree on every
// assignment over the shared test variable universe.
func equivalentUnderAllAssignments(t *testing.T, in, a, b logic.Term) bool {
	t.Helper()
	return forEachAssignment(func(env logic.Assignment) bool {
		va, errA := logic.EvalBool(a, env)
		vb, errB := logic.EvalBool(b, env)
		if errA != nil || errB != nil {
			t.Logf("eval error on %s: %v %v", in, errA, errB)
			return false
		}
		if va != vb {
			t.Logf("divergence on %v:\n  in:        %s\n  normalizer: %s = %v\n  fixpoint:   %s = %v",
				env, in, a, va, b, vb)
			return false
		}
		return true
	})
}

// TestDifferentialRandom drives both implementations over a large
// deterministic sample of random terms and requires agreement under
// every assignment, plus that the normalizer reaches a form no larger
// than the fixpoint's. Each term, and a wide random conjunction per
// seed, must also match the whole-list conjunction loop exactly.
func TestDifferentialRandom(t *testing.T) {
	ref := newRef()
	for seed := int64(0); seed < 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randTerm(r, 4)
		got := Simplify(in)
		want := ref.simplify(in)
		if !equivalentUnderAllAssignments(t, in, got, want) {
			t.Fatalf("seed %d: normalizer diverges from fixpoint reference", seed)
		}
		if logic.Size(got) > logic.Size(want) {
			t.Fatalf("seed %d: normalizer form (%d nodes) larger than fixpoint form (%d nodes):\n  in:   %s\n  norm: %s\n  ref:  %s",
				seed, logic.Size(got), logic.Size(want), in, got, want)
		}
		checkMatchesReferenceLoop(t, in)
		checkMatchesReferenceLoop(t, randConjunction(r))
		checkReplayedEdit(t, r)
	}
}

// TestDifferentialRegressionCorpus runs the shapes the regression tests
// pin — the cases the explanation pipeline is known to depend on —
// through both implementations.
func TestDifferentialRegressionCorpus(t *testing.T) {
	x := logic.NewIntVar("i", 0, 3)
	y := logic.NewIntVar("j", 0, 3)
	b := logic.NewBoolVar("p")
	q := logic.NewBoolVar("q")
	e := logic.NewEnumVar("act", actSort)
	deny := logic.NewEnum(actSort, "deny")
	permit := logic.NewEnum(actSort, "permit")
	corpus := []logic.Term{
		logic.And(logic.Eq(x, logic.NewInt(3)), logic.Lt(x, logic.NewInt(2))),
		logic.And(logic.Eq(x, logic.NewInt(2)), logic.Eq(y, x)),
		logic.And(b, logic.Implies(b, logic.Lt(y, logic.NewInt(2)))),
		logic.And(logic.Not(b), logic.Or(b, logic.Eq(x, logic.NewInt(1)))),
		logic.Not(logic.Eq(e, permit)),
		logic.Or(logic.Eq(e, permit), logic.Eq(e, deny)),
		logic.And(b, logic.Or(b, q), logic.Or(b, logic.Not(q))),
		logic.Or(logic.And(b, q), b, logic.Not(q)),
		logic.And(logic.Eq(e, deny), logic.Implies(logic.Eq(e, deny), logic.Eq(x, logic.NewInt(0)))),
		logic.And(logic.Eq(x, logic.NewInt(3)), logic.Ite(logic.Eq(x, logic.NewInt(3)), b, q)),
		logic.Implies(logic.False, b),
		logic.Or(b, logic.Not(b)),
		logic.Iff(b, logic.Not(b)),
		logic.And(b, logic.Not(b), q),
	}
	ref := newRef()
	for i, in := range corpus {
		got := Simplify(in)
		want := ref.simplify(in)
		if !equivalentUnderAllAssignments(t, in, got, want) {
			t.Fatalf("corpus case %d: normalizer diverges from fixpoint reference", i)
		}
	}
}

// FuzzSimplifyDifferential is the fuzzing entry point for the same
// property, letting CI push past the fixed random sample. Each input
// also runs through the whole-list conjunction loop the semi-naive
// propagation replaced, which must give the pointer-identical result,
// Passes and recounted diagnostics, and in reference/edit mode: a
// random conjunction recorded as the reference, and an edited copy
// replayed against it (checkReplayedEdit).
func FuzzSimplifyDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	ref := newRef()
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for _, in := range []logic.Term{randTerm(r, 4), randConjunction(r)} {
			got := New().Simplify(in)
			want := ref.simplify(in)
			if !equivalentUnderAllAssignments(t, in, got, want) {
				t.Fatalf("normalizer diverges from fixpoint reference on %s", in)
			}
			checkMatchesReferenceLoop(t, in)
		}
		checkReplayedEdit(t, r)
	})
}

// checkReplayedEdit records a random conjunction as the reference
// (Simplifier.Record), derives an edited copy from the same stream,
// and requires its replayed simplification to give the pointer and
// Passes of a full-loop simplification.
func checkReplayedEdit(t *testing.T, r *rand.Rand) {
	t.Helper()
	base := randWideConjunction(r)
	edited := editConjunction(r, base)
	c := NewCache()
	_, ref := NewShared(c).Record(base)
	got := NewShared(c)
	got.Ref = ref
	if err := SameAsFullLoop(got, NewShared(NewCache()), edited); err != nil {
		t.Fatalf("replayed against %s: %v, on %s", base, err, edited)
	}
}

// FuzzReplayRawEdits records a random wide conjunction, with some
// random terms, duplicates and absorbers mixed in, as the reference and
// replays an edited copy of its raw operand list (editRaw) against it.
// The replay must give the pointer and Passes of a full-loop
// simplification; it may fall back.
func FuzzReplayRawEdits(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		base := randRawConjuncts(r)
		edited := editRaw(r, base)
		c := NewCache()
		_, ref := NewShared(c).Record(logic.And(base...))
		got := NewShared(c)
		got.Ref = ref
		if err := SameAsFullLoop(got, NewShared(NewCache()), logic.And(edited...)); err != nil {
			t.Fatalf("replayed against %s: %v, on %s", logic.And(base...), err, logic.And(edited...))
		}
	})
}

// randRawConjuncts builds the raw operand list of a base conjunction:
// randWideConjunction's, with up to two random terms inserted, and a
// duplicate of a conjunct and an operand of a disjunction (an absorber)
// each added at a random place with even odds.
func randRawConjuncts(r *rand.Rand) []logic.Term {
	args := slices.Clone(randWideConjunction(r).(*logic.Apply).Args)
	for n := r.Intn(3); n > 0; n-- {
		args = slices.Insert(args, r.Intn(len(args)+1), randTerm(r, 1+r.Intn(2)))
	}
	if r.Intn(2) == 0 {
		args = slices.Insert(args, r.Intn(len(args)+1), args[r.Intn(len(args))])
	}
	if r.Intn(2) == 0 {
		if a := absorberOf(r, args); a != nil {
			args = slices.Insert(args, r.Intn(len(args)+1), a)
		}
	}
	return args
}

// absorberOf returns an operand of a random disjunction among args, nil
// if there is none.
func absorberOf(r *rand.Rand, args []logic.Term) logic.Term {
	var ors []*logic.Apply
	for _, c := range args {
		if or, ok := c.(*logic.Apply); ok && or.Op == logic.OpOr {
			ors = append(ors, or)
		}
	}
	if len(ors) == 0 {
		return nil
	}
	or := ors[r.Intn(len(ors))]
	return or.Args[r.Intn(len(or.Args))]
}

// editRaw derives an edited copy of a raw operand list: one to four
// edits, each replacing, inserting, deleting or moving a run of up to
// four conjuncts; adding a conjunct that normalizes to true, to false
// or to a conjunction, a duplicate of a later conjunct, a complement or
// an absorber; or removing a conjunct that a later one duplicates, or
// one that is an operand of another (an absorber).
func editRaw(r *rand.Rand, in []logic.Term) []logic.Term {
	args := slices.Clone(in)
	run := func() (int, int) {
		i := r.Intn(len(args))
		return i, min(len(args), i+1+r.Intn(4))
	}
	fresh := func() []logic.Term {
		out := make([]logic.Term, 1+r.Intn(4))
		for i := range out {
			out[i] = randWideConjunct(r)
		}
		return out
	}
	lit := func() logic.Term { return wideBools[r.Intn(len(wideBools))] }
	for n := 1 + r.Intn(4); n > 0; n-- {
		at := r.Intn(len(args) + 1)
		switch r.Intn(13) {
		case 0:
			i, j := run()
			args = slices.Replace(args, i, j, fresh()...)
		case 1:
			args = slices.Insert(args, at, fresh()...)
		case 2:
			if i, j := run(); j-i < len(args) {
				args = slices.Delete(args, i, j)
			}
		case 3:
			i, j := run()
			moved := slices.Clone(args[i:j])
			args = slices.Delete(args, i, j)
			args = slices.Insert(args, r.Intn(len(args)+1), moved...)
		case 4:
			x := lit()
			args = slices.Insert(args, at, logic.Implies(x, x))
		case 5:
			x := lit()
			args = slices.Insert(args, at, logic.And(x, logic.Not(x)))
		case 6:
			args = slices.Insert(args, at, logic.And(randWideConjunct(r), randWideConjunct(r)))
		case 7:
			k := r.Intn(len(args))
			args = slices.Insert(args, r.Intn(k+1), args[k])
		case 8:
			args = slices.Insert(args, at, logic.Not(args[r.Intn(len(args))]))
		case 9:
			if a := absorberOf(r, args); a != nil {
				args = slices.Insert(args, at, a)
			}
		case 10:
			if i := firstDuplicated(args); i >= 0 {
				args = slices.Delete(args, i, i+1)
			}
		case 11:
			if a := absorberOf(r, args); a != nil {
				if i := slices.Index(args, a); i >= 0 && len(args) > 1 {
					args = slices.Delete(args, i, i+1)
				}
			}
		default:
			args[r.Intn(len(args))] = randWideConjunct(r)
		}
	}
	return args
}

// firstDuplicated returns the first index of args whose conjunct a
// later one repeats, -1 if none.
func firstDuplicated(args []logic.Term) int {
	for i, c := range args {
		if slices.Contains(args[i+1:], c) {
			return i
		}
	}
	return -1
}

// wideBools are the boolean variables of randWideConjunction: enough
// names for propagation to run several rounds before it collapses.
var wideBools = func() []*logic.Var {
	vs := make([]*logic.Var, 40)
	for i := range vs {
		vs[i] = logic.NewBoolVar(fmt.Sprintf("w%d", i))
	}
	return vs
}()

// randWideConjunction builds a conjunction of 8 to 39 conjuncts shaped
// like a seed's: bindings, implications and disjunctions over
// wideBools and the integers i and j.
func randWideConjunction(r *rand.Rand) logic.Term {
	args := make([]logic.Term, 8+r.Intn(32))
	for i := range args {
		args[i] = randWideConjunct(r)
	}
	return logic.And(args...)
}

func randWideConjunct(r *rand.Rand) logic.Term {
	lit := func() logic.Term {
		if v := wideBools[r.Intn(len(wideBools))]; r.Intn(5) > 0 {
			return v
		} else {
			return logic.Not(v)
		}
	}
	bound := func() logic.Term { return logic.NewInt(int64(r.Intn(4))) }
	switch r.Intn(8) {
	case 0:
		return lit()
	case 1:
		return logic.Or(lit(), logic.Eq(pInts[r.Intn(2)], bound()))
	case 2, 7:
		return logic.Implies(lit(), lit())
	case 3:
		return logic.Or(lit(), lit(), lit())
	case 4:
		return logic.Implies(logic.And(lit(), lit()), logic.Or(lit(), lit()))
	case 5:
		return logic.Implies(lit(), logic.Eq(pInts[r.Intn(2)], bound()))
	default:
		return logic.Implies(lit(), logic.Le(pInts[r.Intn(2)], bound()))
	}
}

// editConjunction derives an edited copy of a randWideConjunction: one
// to three edits, each replacing, inserting or dropping a conjunct.
func editConjunction(r *rand.Rand, in logic.Term) logic.Term {
	args := slices.Clone(in.(*logic.Apply).Args)
	for n := 1 + r.Intn(3); n > 0; n-- {
		i := r.Intn(len(args))
		switch r.Intn(3) {
		case 0:
			args[i] = randWideConjunct(r)
		case 1:
			args = slices.Insert(args, i, randWideConjunct(r))
		default:
			if len(args) > 1 {
				args = slices.Delete(args, i, i+1)
			}
		}
	}
	return logic.And(args...)
}

// randConjunction builds a conjunction of 3 to 22 random terms, wide
// enough for propagation to run several rounds at one conjunction.
func randConjunction(r *rand.Rand) logic.Term {
	args := make([]logic.Term, 3+r.Intn(20))
	for i := range args {
		args[i] = randTerm(r, r.Intn(4))
	}
	return logic.And(args...)
}

// checkMatchesReferenceLoop simplifies in cold with the semi-naive
// propagation and with the whole-list loop (export_test.go), and
// requires the same pointer, Passes and counted rule fires.
func checkMatchesReferenceLoop(t *testing.T, in logic.Term) {
	t.Helper()
	if err := SameAsReference(NewShared(NewCache()), NewReference(NewCache()), in); err != nil {
		t.Fatalf("%v, on %s", err, in)
	}
}

// TestSemiNaiveRoundShapes drives each way a propagation round can
// settle through both conjunction loops: a substituted conjunct that
// meets its complement from either side, absorbs or is absorbed,
// duplicates an earlier or a later conjunct, becomes true, becomes a
// conjunction, or collapses the whole conjunction after other S4
// actions; two new bindings of one name; a chain of rounds; and the
// MaxPasses bound.
func TestSemiNaiveRoundShapes(t *testing.T) {
	p, q := pBools[0], pBools[1]
	i, j := pInts[0], pInts[1]
	one := logic.NewInt(1)
	bind := logic.Eq(i, one)
	jlt := logic.Lt(j, logic.NewInt(2))
	pq := logic.Or(p, q)
	cases := []struct {
		name string
		in   logic.Term
	}{
		{"new-not-meets-member", logic.And(bind, logic.Implies(bind, logic.Not(pq)), pq)},
		{"new-member-meets-not", logic.And(bind, logic.Implies(bind, pq), logic.Not(pq))},
		{"new-or-absorbed", logic.And(bind, logic.Implies(bind, logic.Or(q, jlt)), jlt)},
		{"new-member-absorbs", logic.And(bind, logic.Implies(bind, jlt), logic.Or(q, jlt))},
		{"dup-of-earlier", logic.And(jlt, bind, logic.Implies(bind, jlt))},
		{"dup-of-later", logic.And(bind, logic.Implies(bind, jlt), jlt)},
		{"two-new-equal", logic.And(bind, logic.Not(p), logic.Implies(bind, jlt), logic.Or(p, jlt))},
		{"becomes-true", logic.And(bind, logic.Implies(logic.Ne(i, one), q), jlt)},
		{"becomes-conjunction", logic.And(bind, logic.Implies(bind, logic.And(q, jlt)), logic.Or(p, jlt))},
		{"collapse-after-actions", logic.And(bind, logic.Implies(logic.Ne(i, one), q), logic.Implies(bind, jlt), logic.Ne(i, one), jlt)},
		{"second-binding", logic.And(p, logic.Implies(p, bind), logic.Implies(p, logic.Eq(i, logic.NewInt(2))))},
		{"chain", logic.And(p, logic.Implies(p, q), logic.Implies(q, bind), logic.Implies(bind, jlt), logic.Or(logic.Not(jlt), logic.Eq(j, one)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkMatchesReferenceLoop(t, tc.in) })
	}
	chain := cases[len(cases)-1].in
	for passes := 0; passes <= 3; passes++ {
		got, want := New(), NewReference(NewCache())
		got.MaxPasses, want.MaxPasses = passes, passes
		if g, w := got.Simplify(chain), want.Simplify(chain); g != w || got.Passes != want.Passes {
			t.Fatalf("MaxPasses %d: %s (Passes %d), whole-list loop %s (Passes %d)", passes, g, got.Passes, w, want.Passes)
		}
	}
}

// TestSharedCacheConcurrent hammers one shared normal-form cache from
// many goroutines over overlapping random terms and checks every
// result against a cold single-threaded simplifier. Run under -race
// (CI does) this also proves the cache safe for the parallel report
// workers.
func TestSharedCacheConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 60
	cache := NewCache()

	// Pre-compute expected normal forms cold.
	terms := make([]logic.Term, perG)
	want := make([]logic.Term, perG)
	for i := range terms {
		r := rand.New(rand.NewSource(int64(i)))
		terms[i] = randTerm(r, 5)
		want[i] = Simplify(terms[i])
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewShared(cache)
			// Each goroutine visits the same terms in a different order.
			for k := 0; k < perG; k++ {
				i := (k*7 + g*13) % perG
				if got := s.Simplify(terms[i]); got != want[i] {
					errs <- fmt.Errorf("goroutine %d term %d: got %s want %s", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Hits() == 0 {
		t.Fatal("shared cache recorded no hits across goroutines")
	}
	if cache.Len() == 0 {
		t.Fatal("shared cache is empty after concurrent runs")
	}
}

// TestSharedCacheDeterministicDiagnostics checks that Passes does not
// depend on cache warmth: a simplifier that computed everything itself,
// one answering entirely from a warm shared cache, and a private cache
// that saw only this term must all report the pass depth a counting run
// finds, and two counting runs must count the same rule fires.
func TestSharedCacheDeterministicDiagnostics(t *testing.T) {
	cache := NewCache()
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randTerm(r, 4)

		cold := NewShared(cache)
		out1 := cold.Simplify(in)
		warm := NewShared(cache)
		out2 := warm.Simplify(in)
		priv := New()
		priv.Simplify(in)
		fires, passes := CountFires(in)
		again, _ := CountFires(in)

		if out1 != out2 {
			t.Fatalf("seed %d: warm result differs: %s vs %s", seed, out1, out2)
		}
		if cold.Passes != passes || warm.Passes != passes || priv.Passes != passes {
			t.Fatalf("seed %d: Passes differ: cold=%d warm=%d private=%d counted=%d",
				seed, cold.Passes, warm.Passes, priv.Passes, passes)
		}
		if !maps.Equal(fires, again) {
			t.Fatalf("seed %d: two counting runs differ: %v, %v", seed, fires, again)
		}
	}
}

// TestPrivateCachePerConfig checks that flipping the ablation knobs
// does not replay normal forms computed under a different
// configuration.
func TestPrivateCachePerConfig(t *testing.T) {
	x := logic.NewIntVar("x", 0, 9)
	in := logic.And(logic.Eq(x, logic.NewInt(3)), logic.Lt(x, logic.NewInt(5)))

	shared := NewCache()
	s := NewShared(shared)
	if got := s.Simplify(in); got.String() != "x = 3" || s.Passes != 2 {
		t.Fatalf("default config: got %s in %d passes, want x = 3 in 2 (one S14 round)", got, s.Passes)
	}
	s.DisableEqPropagation = true
	got := s.Simplify(in)
	if got.String() != "x = 3 & x < 5" || s.Passes != 1 {
		t.Fatalf("ablated config answered from default-config cache: %s in %d passes", got, s.Passes)
	}
	if s.cache == shared {
		t.Fatal("ablated config ran on the shared default-config cache")
	}
	// And back: the shared cache still answers the default config.
	s.DisableEqPropagation = false
	if got := s.Simplify(in); got.String() != "x = 3" {
		t.Fatalf("default config after flip-back: got %s", got)
	}
}

// BenchmarkFixpointReference measures the retired pass-until-fixpoint
// engine on the same random-term population the differential tests
// use, giving an in-binary old-vs-new comparison point
// (BenchmarkNormalizerSameTerms is the new engine on identical input).
func BenchmarkFixpointReference(b *testing.B) {
	terms := diffBenchTerms()
	ref := newRef()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range terms {
			ref.simplify(in)
		}
	}
}

// BenchmarkNormalizerSameTerms is the new engine over the exact term
// population of BenchmarkFixpointReference (cold cache per iteration).
func BenchmarkNormalizerSameTerms(b *testing.B) {
	terms := diffBenchTerms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, in := range terms {
			s.Simplify(in)
		}
	}
}

func diffBenchTerms() []logic.Term {
	terms := make([]logic.Term, 200)
	for i := range terms {
		r := rand.New(rand.NewSource(int64(i)))
		terms[i] = randTerm(r, 6)
	}
	return terms
}
