package rewrite

import (
	"cmp"
	"slices"

	"repro/internal/logic"
)

// The normalizer's two indexes. A termIndex finds where a term sits in
// a list it does not copy: an operand list, a recorded root's raw
// conjuncts and operands, or its holds. A slotIndex is a conjunct list
// with stable slots and the membership, negation and disjunction
// indexes S4, S6 and S13 read, kept across rounds by the semi-naive
// propagation (andState) and by a replay's recomputed slots
// (replayState).

// termIndex lists places (list positions, raw slots, operands, holds)
// by the low half of a term's cached hash and then by place, so the
// places of one term are adjacent and in order. It holds 8 bytes a
// place; a lookup binary-searches, and the caller checks the term at
// each place, since hashes may collide. Every term the normalizer
// indexes is canonical, so that check is a pointer comparison.
type termIndex []termPlace

type termPlace struct {
	h     uint32
	place int32
}

func (x *termIndex) add(t logic.Term, place int32) {
	*x = append(*x, termPlace{uint32(logic.Hash(t)), place})
}

// sort orders the index once every place is added.
func (x termIndex) sort() {
	slices.SortFunc(x, func(a, b termPlace) int {
		return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.place, b.place))
	})
}

// places returns the entries whose hash is t's, in place order.
func (x termIndex) places(t logic.Term) termIndex {
	h := uint32(logic.Hash(t))
	lo, _ := slices.BinarySearchFunc(x, h, func(e termPlace, h uint32) int { return cmp.Compare(e.h, h) })
	hi := lo
	for hi < len(x) && x[hi].h == h {
		hi++
	}
	return x[lo:hi]
}

// indexTerms indexes the list ts, each term at its position.
func indexTerms(ts []logic.Term) termIndex {
	x := make(termIndex, len(ts))
	for i, t := range ts {
		x[i] = termPlace{uint32(logic.Hash(t)), int32(i)}
	}
	x.sort()
	return x
}

// has reports whether the list ts, which x indexes, holds t.
func (x termIndex) has(ts []logic.Term, t logic.Term) bool {
	for _, e := range x.places(t) {
		if ts[e.place] == t {
			return true
		}
	}
	return false
}

// slotIndex is a conjunct list with stable slots: a dropped conjunct
// leaves a nil slot, so the indexes, which name slots, stay valid as
// conjuncts come and go. index maps each live conjunct to its slot and
// nots maps y to the slot of the live conjunct !y. ors maps an operand
// of a disjunction to the slots that held a disjunction over it; its
// lists only grow, so a slot on one may have changed since and readers
// re-check.
type slotIndex struct {
	args        []logic.Term
	index, nots map[logic.Term]int32
	ors         map[logic.Term][]int32
}

func newSlotIndex(n int) slotIndex {
	return slotIndex{
		index: make(map[logic.Term]int32, n),
		nots:  map[logic.Term]int32{},
		ors:   map[logic.Term][]int32{},
	}
}

// reset empties the list and its indexes and sizes the list to n empty
// slots.
func (x *slotIndex) reset(n int) {
	clear(x.args)
	x.args = resize(x.args, n)
	clear(x.index)
	clear(x.nots)
	clear(x.ors)
}

// insert places conjunct c in slot p and indexes it.
func (x *slotIndex) insert(p int32, c logic.Term) {
	x.args[p] = c
	x.index[c] = p
	if y, ok := negated(c); ok {
		x.nots[y] = p
	}
	if or, ok := c.(*logic.Apply); ok && or.Op == logic.OpOr {
		for _, o := range or.Args {
			x.ors[o] = append(x.ors[o], p)
		}
	}
}

// drop empties slot p and unindexes its conjunct.
func (x *slotIndex) drop(p int32) {
	c := x.args[p]
	x.args[p] = nil
	if x.index[c] == p {
		delete(x.index, c)
	}
	if y, ok := negated(c); ok && x.nots[y] == p {
		delete(x.nots, y)
	}
}

// resize returns s with length n, zeroed, reusing its array when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
