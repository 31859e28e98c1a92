package smt

import (
	"fmt"
	"slices"

	"repro/internal/logic"
	"repro/internal/sat"
)

// litOf returns a propositional literal equisatisfiable with the
// Bool-sorted term t (a Tseitin encoding: the literal is constrained to
// be equivalent to t). Results are memoized by canonical pointer so
// shared subterms are encoded once, and each probe is a single map
// lookup: t is interned on entry (an O(1) ownership check for terms
// built by the logic constructors), and the arguments of a canonical
// term are canonical themselves, so the recursion never re-interns.
func (s *Solver) litOf(t logic.Term) (sat.Lit, error) {
	t = logic.Intern(t)
	if l, ok := s.boolMemo[t]; ok {
		return l, nil
	}
	l, err := s.encodeBool(t)
	if err != nil {
		return 0, err
	}
	s.boolMemo[t] = l
	return l, nil
}

func (s *Solver) encodeBool(t logic.Term) (sat.Lit, error) {
	switch n := t.(type) {
	case *logic.BoolLit:
		if n.Val {
			return s.litTrue, nil
		}
		return s.litFalse, nil
	case *logic.Var:
		if err := s.Declare(n); err != nil {
			return 0, err
		}
		e := s.enc[n.Name]
		if !n.S.IsBool() {
			return 0, fmt.Errorf("smt: boolean encoding of non-bool variable %q", n.Name)
		}
		return e.boolLit, nil
	case *logic.Apply:
		return s.encodeBoolApply(n)
	}
	return 0, fmt.Errorf("smt: cannot encode %v (type %T) as boolean", t, t)
}

func (s *Solver) encodeBoolApply(n *logic.Apply) (sat.Lit, error) {
	switch n.Op {
	case logic.OpNot:
		l, err := s.litOf(n.Args[0])
		if err != nil {
			return 0, err
		}
		return l.Neg(), nil

	case logic.OpAnd, logic.OpOr:
		lits := make([]sat.Lit, len(n.Args))
		for i, a := range n.Args {
			l, err := s.litOf(a)
			if err != nil {
				return 0, err
			}
			lits[i] = l
		}
		if n.Op == logic.OpAnd {
			return s.andLit(lits), nil
		}
		return s.orLit(lits), nil

	case logic.OpImplies:
		l, err := s.litOf(n.Args[0])
		if err != nil {
			return 0, err
		}
		r, err := s.litOf(n.Args[1])
		if err != nil {
			return 0, err
		}
		return s.orLit([]sat.Lit{l.Neg(), r}), nil

	case logic.OpIff:
		l, err := s.litOf(n.Args[0])
		if err != nil {
			return 0, err
		}
		r, err := s.litOf(n.Args[1])
		if err != nil {
			return 0, err
		}
		return s.iffLit(l, r), nil

	case logic.OpEq, logic.OpNe:
		eq, err := s.eqLit(n.Args[0], n.Args[1])
		if err != nil {
			return 0, err
		}
		if n.Op == logic.OpNe {
			return eq.Neg(), nil
		}
		return eq, nil

	case logic.OpLt, logic.OpLe, logic.OpGt, logic.OpGe:
		return s.cmpLit(n.Op, n.Args[0], n.Args[1])

	case logic.OpIte:
		// Boolean-sorted ite: (c & t) | (!c & e).
		c, err := s.litOf(n.Args[0])
		if err != nil {
			return 0, err
		}
		tl, err := s.litOf(n.Args[1])
		if err != nil {
			return 0, err
		}
		el, err := s.litOf(n.Args[2])
		if err != nil {
			return 0, err
		}
		a := s.andLit([]sat.Lit{c, tl})
		b := s.andLit([]sat.Lit{c.Neg(), el})
		return s.orLit([]sat.Lit{a, b}), nil
	}
	return 0, fmt.Errorf("smt: cannot encode operator %v as boolean", n.Op)
}

// andLit returns a literal equivalent to the conjunction of lits.
func (s *Solver) andLit(lits []sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return s.litTrue
	case 1:
		return lits[0]
	}
	a := sat.PosLit(s.sat.NewVar())
	long := make([]sat.Lit, 0, len(lits)+1)
	long = append(long, a)
	for _, l := range lits {
		s.sat.AddClause(a.Neg(), l) // a -> l
		long = append(long, l.Neg())
	}
	s.sat.AddClause(long...) // (l1 & ... & ln) -> a
	return a
}

// orLit returns a literal equivalent to the disjunction of lits.
func (s *Solver) orLit(lits []sat.Lit) sat.Lit {
	switch len(lits) {
	case 0:
		return s.litFalse
	case 1:
		return lits[0]
	}
	a := sat.PosLit(s.sat.NewVar())
	long := make([]sat.Lit, 0, len(lits)+1)
	long = append(long, a.Neg())
	for _, l := range lits {
		s.sat.AddClause(a, l.Neg()) // l -> a
		long = append(long, l)
	}
	s.sat.AddClause(long...) // a -> (l1 | ... | ln)
	return a
}

// iffLit returns a literal equivalent to l <-> r.
func (s *Solver) iffLit(l, r sat.Lit) sat.Lit {
	a := sat.PosLit(s.sat.NewVar())
	s.sat.AddClause(a.Neg(), l.Neg(), r)
	s.sat.AddClause(a.Neg(), l, r.Neg())
	s.sat.AddClause(a, l, r)
	s.sat.AddClause(a, l.Neg(), r.Neg())
	return a
}

// eqLit encodes equality between two same-sorted terms.
func (s *Solver) eqLit(a, b logic.Term) (sat.Lit, error) {
	if a.Sort().IsBool() {
		l, err := s.litOf(a)
		if err != nil {
			return 0, err
		}
		r, err := s.litOf(b)
		if err != nil {
			return 0, err
		}
		return s.iffLit(l, r), nil
	}
	va, err := s.valueListOf(a)
	if err != nil {
		return 0, err
	}
	vb, err := s.valueListOf(b)
	if err != nil {
		return 0, err
	}
	// OR over equal value pairs of (guardA & guardB).
	var ors []sat.Lit
	for i, x := range va.vals {
		for j, y := range vb.vals {
			if x == y {
				ors = append(ors, s.andLit([]sat.Lit{va.lits[i], vb.lits[j]}))
			}
		}
	}
	return s.orLit(ors), nil
}

// cmpLit encodes an integer comparison.
func (s *Solver) cmpLit(op logic.Op, a, b logic.Term) (sat.Lit, error) {
	va, err := s.valueListOf(a)
	if err != nil {
		return 0, err
	}
	vb, err := s.valueListOf(b)
	if err != nil {
		return 0, err
	}
	holds := func(x, y int64) bool {
		switch op {
		case logic.OpLt:
			return x < y
		case logic.OpLe:
			return x <= y
		case logic.OpGt:
			return x > y
		default:
			return x >= y
		}
	}
	var ors []sat.Lit
	for i, x := range va.vals {
		for j, y := range vb.vals {
			if holds(x, y) {
				ors = append(ors, s.andLit([]sat.Lit{va.lits[i], vb.lits[j]}))
			}
		}
	}
	return s.orLit(ors), nil
}

// valueListOf returns the value-list encoding of a non-boolean term,
// memoized by canonical pointer (see litOf).
func (s *Solver) valueListOf(t logic.Term) (*valueList, error) {
	t = logic.Intern(t)
	if vl, ok := s.valMemo[t]; ok {
		return vl, nil
	}
	vl, err := s.encodeValue(t)
	if err != nil {
		return nil, err
	}
	s.valMemo[t] = vl
	return vl, nil
}

func (s *Solver) encodeValue(t logic.Term) (*valueList, error) {
	switch n := t.(type) {
	case *logic.IntLit:
		return &valueList{sort: logic.Int, vals: []int64{n.Val}, lits: []sat.Lit{s.litTrue}}, nil
	case *logic.EnumLit:
		i, ok := n.S.ValueIndex(n.Val)
		if !ok {
			return nil, fmt.Errorf("smt: enum literal %q not in sort %v", n.Val, n.S)
		}
		return &valueList{sort: n.S, vals: []int64{int64(i)}, lits: []sat.Lit{s.litTrue}}, nil
	case *logic.Var:
		if err := s.Declare(n); err != nil {
			return nil, err
		}
		e := s.enc[n.Name]
		if e.vl == nil {
			return nil, fmt.Errorf("smt: value encoding of boolean variable %q", n.Name)
		}
		return e.vl, nil
	case *logic.Apply:
		return s.encodeValueApply(n)
	}
	return nil, fmt.Errorf("smt: cannot value-encode %v (type %T)", t, t)
}

func (s *Solver) encodeValueApply(n *logic.Apply) (*valueList, error) {
	if n.Op != logic.OpIte {
		return nil, fmt.Errorf("smt: cannot value-encode operator %v", n.Op)
	}
	c, err := s.litOf(n.Args[0])
	if err != nil {
		return nil, err
	}
	va, err := s.valueListOf(n.Args[1])
	if err != nil {
		return nil, err
	}
	vb, err := s.valueListOf(n.Args[2])
	if err != nil {
		return nil, err
	}
	guards := make(map[int64][]sat.Lit)
	for i, x := range va.vals {
		guards[x] = append(guards[x], s.andLit([]sat.Lit{c, va.lits[i]}))
	}
	for i, x := range vb.vals {
		guards[x] = append(guards[x], s.andLit([]sat.Lit{c.Neg(), vb.lits[i]}))
	}
	return s.mergedValueList(va.sort, guards)
}

// mergedValueList turns a value -> guard-disjunction map into a value
// list, in ascending value order for determinism. The exactly-one
// invariant is inherited from the operand lists: for each model
// exactly one (value, guard) pair fires.
func (s *Solver) mergedValueList(sort *logic.Sort, guards map[int64][]sat.Lit) (*valueList, error) {
	if len(guards) > MaxValueListSize {
		return nil, fmt.Errorf("smt: value list of %d entries exceeds cap %d", len(guards), MaxValueListSize)
	}
	vals := make([]int64, 0, len(guards))
	for v := range guards {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	lits := make([]sat.Lit, len(vals))
	for i, v := range vals {
		lits[i] = s.orLit(guards[v])
	}
	return &valueList{sort: sort, vals: vals, lits: lits}, nil
}
