package logic

import "sort"

// This file gives the term table first-class support for canonical flat
// n-ary AND/OR construction and for set-style membership over a node's
// children. The rewrite engine's hot loops — complement detection
// (a & !a), absorption (a & (a|b)), duplicate removal — were O(n²·k)
// pairwise Equal scans; over canonical terms they reduce to flattening
// plus hash-sorted set lookups, with every comparison a pointer
// comparison.

// flatNary flattens one construction of the n-ary operator op (OpAnd
// or OpOr) over args: nested applications of op are spliced in, the
// operator's identity element is dropped, duplicates are removed
// (pointer comparison over canonical terms), and an occurrence of the
// annihilator collapses the whole construction. The first occurrence
// order of the surviving operands is preserved, which is what keeps
// rendered output stable for callers that print terms.
//
// It returns the surviving operands, the number of individual
// simplification actions taken (0 means out is args unchanged), and
// whether the annihilator collapsed the construction (out is nil and
// the caller should use the annihilator constant).
func flatNary(op Op, args []Term) (out []Term, actions int, collapsed bool) {
	identity, annihilator := Term(True), Term(False)
	if op == OpOr {
		identity, annihilator = False, True
	}
	seen := make(map[Term]struct{}, len(args))
	out = make([]Term, 0, len(args))
	var walk func(ts []Term) bool
	walk = func(ts []Term) bool {
		for _, t := range ts {
			t = Intern(t)
			if t == identity {
				actions++
				continue
			}
			if t == annihilator {
				actions++
				return false
			}
			if ap, ok := t.(*Apply); ok && ap.Op == op {
				actions++
				if !walk(ap.Args) {
					return false
				}
				continue
			}
			if _, dup := seen[t]; dup {
				actions++
				continue
			}
			seen[t] = struct{}{}
			out = append(out, t)
		}
		return true
	}
	if !walk(args) {
		return nil, actions, true
	}
	return out, actions, false
}

// FlatAnd flattens one conjunction over args (see flatNary).
func FlatAnd(args []Term) (out []Term, actions int, collapsed bool) {
	return flatNary(OpAnd, args)
}

// FlatOr flattens one disjunction over args (see flatNary).
func FlatOr(args []Term) (out []Term, actions int, collapsed bool) {
	return flatNary(OpOr, args)
}

// TermSet is an immutable membership set over terms, stored as a
// hash-sorted slice (binary search on the cached structural hash, then
// a pointer-fast Equal over the — almost always singleton — run of
// equal hashes). Built once per child set, it turns the rewrite
// engine's pairwise scans into O(log n) probes.
type TermSet struct {
	hs []uint64
	ts []Term
}

// NewTermSet builds a set over the given terms. The input slice is not
// retained.
func NewTermSet(args []Term) TermSet {
	s := TermSet{hs: make([]uint64, len(args)), ts: make([]Term, len(args))}
	copy(s.ts, args)
	for i, t := range args {
		s.hs[i] = Hash(t)
	}
	sort.Sort(&s)
	return s
}

// Len, Less, Swap implement sort.Interface for the construction sort.
func (s *TermSet) Len() int           { return len(s.hs) }
func (s *TermSet) Less(i, j int) bool { return s.hs[i] < s.hs[j] }
func (s *TermSet) Swap(i, j int) {
	s.hs[i], s.hs[j] = s.hs[j], s.hs[i]
	s.ts[i], s.ts[j] = s.ts[j], s.ts[i]
}

// Size returns the number of members.
func (s TermSet) Size() int { return len(s.ts) }

// Has reports whether t is a member. Over canonical terms every
// comparison is a pointer comparison.
func (s TermSet) Has(t Term) bool {
	h := Hash(t)
	i := sort.Search(len(s.hs), func(i int) bool { return s.hs[i] >= h })
	for ; i < len(s.hs) && s.hs[i] == h; i++ {
		if s.ts[i] == t || Equal(s.ts[i], t) {
			return true
		}
	}
	return false
}

// varBit maps a variable name to one bit of the 64-bit variable
// signature space.
func varBit(name string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return 1 << (h & 63)
}

// Signature returns the term's 64-bit free-variable Bloom signature:
// one bit per (hashed) variable name occurring free in the term.
// Interned nodes answer in O(1) from the signature cached at intern
// time; hand-built nodes fall back to a walk. The signature admits
// false positives (two names may share a bit) but no false negatives:
// Signature(a)&Signature(b) == 0 proves a and b share no variables.
func Signature(t Term) uint64 {
	if sig, ok := varSigFast(t); ok {
		return sig
	}
	var sig uint64
	Walk(t, func(u Term) bool {
		if s, ok := varSigFast(u); ok {
			sig |= s
			return false
		}
		return true
	})
	return sig
}

// varSigFast returns the term's variable signature when it is
// available in O(1): leaves compute it directly, canonical Apply nodes
// carry it from intern time. ok is false for hand-built Apply nodes,
// whose signature would take a walk to compute.
func varSigFast(t Term) (sig uint64, ok bool) {
	switch n := t.(type) {
	case *Var:
		if n.hash != 0 {
			return n.vsig, true
		}
		return varBit(n.Name), true
	case *BoolLit, *IntLit, *EnumLit:
		return 0, true
	case *Apply:
		if n.hash != 0 {
			return n.vsig, true
		}
		return 0, false
	}
	return 0, true
}
