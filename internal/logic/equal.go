package logic

// Equal reports structural equality of two terms. Variables compare by
// name, sort, and integer domain; literals by value; applications by
// operator and argument-wise equality. And/Or argument order is
// significant — the rewrite engine canonicalizes ordering where it
// matters.
//
// Terms built by this package's constructors are hash-consed (see
// intern.go), so Equal almost always decides in O(1): pointer-equal
// means equal, and two distinct canonical pointers mean unequal. The
// structural walk only runs when a hand-built node is involved, and
// even then recursion hits the pointer fast path at the first shared
// child.
func Equal(a, b Term) bool {
	if a == b {
		return true
	}
	if cachedHash(a) != 0 && cachedHash(b) != 0 {
		// Both canonical: structurally equal terms are
		// pointer-identical, so distinct pointers are unequal.
		return false
	}
	switch x := a.(type) {
	case *Var:
		y, ok := b.(*Var)
		return ok && x.Name == y.Name && x.Lo == y.Lo && x.Hi == y.Hi && SameSort(x.S, y.S)
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && x.Val == y.Val
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.Val == y.Val
	case *EnumLit:
		y, ok := b.(*EnumLit)
		return ok && x.Val == y.Val && SameSort(x.S, y.S)
	case *Apply:
		y, ok := b.(*Apply)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Hash returns a structural hash consistent with Equal: equal terms
// hash equally. Interned terms (anything built by the constructors)
// carry their hash from intern time, so Hash is O(1) on them;
// hand-built nodes are hashed by traversal, reusing cached child
// hashes where present. Hash never returns 0.
func Hash(t Term) uint64 {
	if h := cachedHash(t); h != 0 {
		return h
	}
	return computeHash(t)
}

// cachedHash returns the hash stored at intern time, or 0 when the
// node is not canonical.
func cachedHash(t Term) uint64 {
	switch n := t.(type) {
	case *Var:
		return n.hash
	case *BoolLit:
		return n.hash
	case *IntLit:
		return n.hash
	case *EnumLit:
		return n.hash
	case *Apply:
		return n.hash
	}
	return 0
}

func computeHash(t Term) uint64 {
	switch n := t.(type) {
	case *Var:
		return hashVar(n)
	case *BoolLit:
		return hashBool(n.Val)
	case *IntLit:
		return hashInt(n.Val)
	case *EnumLit:
		return hashEnum(n)
	case *Apply:
		return hashApply(n)
	}
	return 1
}

// The node hashes below are FNV-1a over a tagged flattening of the
// node, except that Apply mixes in its arguments' (cached) hashes as
// single words instead of re-walking the subterm — this is what makes
// interning O(1) per construction.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mixByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func mixWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = mixByte(h, byte(w>>(8*i)))
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mixByte(h, s[i])
	}
	return h
}

func mixSort(h uint64, s *Sort) uint64 {
	h = mixByte(h, byte(s.Kind))
	if s.Kind == KindEnum {
		h = mixString(h, s.Name)
	}
	return h
}

// nonzero keeps 0 available as the "not canonical" sentinel.
func nonzero(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

func hashVar(v *Var) uint64 {
	h := mixByte(fnvOffset, 1)
	h = mixString(h, v.Name)
	h = mixSort(h, v.S)
	h = mixWord(h, uint64(v.Lo))
	h = mixWord(h, uint64(v.Hi))
	return nonzero(h)
}

func hashBool(v bool) uint64 {
	h := mixByte(fnvOffset, 2)
	if v {
		h = mixByte(h, 1)
	} else {
		h = mixByte(h, 0)
	}
	return nonzero(h)
}

func hashInt(v int64) uint64 {
	return nonzero(mixWord(mixByte(fnvOffset, 3), uint64(v)))
}

func hashEnum(e *EnumLit) uint64 {
	h := mixByte(fnvOffset, 4)
	h = mixString(h, e.Val)
	h = mixSort(h, e.S)
	return nonzero(h)
}

func hashApply(a *Apply) uint64 {
	h := mixByte(fnvOffset, 5)
	h = mixByte(h, byte(a.Op))
	h = mixWord(h, uint64(len(a.Args)))
	for _, arg := range a.Args {
		h = mixWord(h, Hash(arg))
	}
	return nonzero(h)
}

// DedupTerms removes structural duplicates from ts, preserving first
// occurrences. With interned inputs duplicates are pointer duplicates,
// so the common case is one map probe per term.
func DedupTerms(ts []Term) []Term {
	seen := make(map[uint64][]Term, len(ts))
	out := ts[:0:0]
	for _, t := range ts {
		h := Hash(t)
		dup := false
		for _, prev := range seen[h] {
			if Equal(prev, t) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], t)
			out = append(out, t)
		}
	}
	return out
}
