package logic

import "sync"

// This file implements hash-consing for terms. An Interner maintains a
// canonical representative for every structurally distinct term; all
// package constructors route through a shared package-default interner,
// so two structurally equal terms built anywhere in the process are the
// same pointer. That gives the hot paths O(1) structural operations:
//
//   - Equal fast-paths to pointer comparison (both directions — two
//     distinct canonical pointers of the same interner are known
//     unequal without a walk);
//   - Hash returns the hash cached on the node at intern time instead
//     of re-traversing the subterm;
//   - consumers (the smt Tseitin memo, the rewrite per-pass memo) key
//     maps directly by Term, relying on pointer identity.
//
// Canonicalization is safe because terms are immutable: nothing in the
// codebase mutates a node after construction, so sharing a node between
// arbitrarily many parents — and between goroutines — cannot be
// observed. The interner's table is sharded by hash and each shard is
// mutex-guarded, so concurrent construction (for example from
// core.Report's worker pool) is safe; a node's hash/owner metadata is
// written exactly once, before the node is published through the shard
// lock, so readers of canonical nodes never race with that write.

// internShards is the number of lock shards of an Interner. Sharding
// keeps concurrent interning from the worker pool off a single mutex.
const internShards = 64

// Interner canonicalizes terms: Intern returns a pointer-identical
// representative for every structurally equal term. The zero value is
// not usable; create interners with NewInterner. Most code should use
// the package-default interner implicitly through the term
// constructors; a separate Interner provides an isolated term universe
// (for tests, or to let a bounded workload's canonical terms be
// garbage-collected by dropping the interner and every term built
// through it).
type Interner struct {
	shards [internShards]internShard
}

type internShard struct {
	mu sync.Mutex
	m  map[uint64][]Term
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].m = make(map[uint64][]Term)
	}
	return in
}

// defaultInterner is the process-wide table the constructors intern
// through. It grows monotonically with the set of distinct terms ever
// built; see DESIGN.md ("Hash-consed terms") for the scoping
// trade-off.
var defaultInterner = NewInterner()

// Intern canonicalizes t through the package-default interner. Terms
// built by this package's constructors are already canonical, making
// this an O(1) ownership check; hand-built nodes are rebuilt
// bottom-up.
func Intern(t Term) Term { return defaultInterner.Intern(t) }

// Intern returns the canonical representative of t in this interner,
// inserting one if t is structurally new. If t is already canonical in
// this interner it is returned unchanged in O(1). The result is
// structurally Equal to t (and for interned inputs of the same
// interner, Equal if and only if pointer-identical).
func (in *Interner) Intern(t Term) Term {
	switch n := t.(type) {
	case *BoolLit:
		// The two boolean constants are global singletons shared by
		// every interner.
		if n.Val {
			return True
		}
		return False
	case *Var:
		if n.in == in {
			return n
		}
		node := n
		if n.in != nil {
			node = &Var{Name: n.Name, S: n.S, Lo: n.Lo, Hi: n.Hi}
		}
		return in.canon(node, hashVar(n)).(*Var)
	case *IntLit:
		if n.in == in {
			return n
		}
		node := n
		if n.in != nil {
			node = &IntLit{Val: n.Val}
		}
		return in.canon(node, hashInt(n.Val))
	case *EnumLit:
		if n.in == in {
			return n
		}
		node := n
		if n.in != nil {
			node = &EnumLit{S: n.S, Val: n.Val}
		}
		return in.canon(node, hashEnum(n))
	case *Apply:
		if n.in == in {
			return n
		}
		// Canonicalize the arguments first so the shallow probe in
		// canon can compare them by pointer.
		args := n.Args
		var copied []Term
		for i, a := range args {
			ca := in.Intern(a)
			if ca != a && copied == nil {
				copied = make([]Term, len(args))
				copy(copied, args[:i])
			}
			if copied != nil {
				copied[i] = ca
			}
		}
		node := n
		if copied != nil {
			node = &Apply{Op: n.Op, Args: copied}
		} else if n.in != nil {
			node = &Apply{Op: n.Op, Args: args}
		}
		return in.canon(node, hashApply(node))
	}
	return t
}

// canon looks t up in the shard for h, returning the existing
// representative or inserting t (claiming it: its cached hash and
// owner are set, and Apply argument slices are copied so later caller
// mutations of a variadic slice cannot corrupt the table). t must be
// unowned (in == nil) and, for Apply nodes, have canonical arguments.
func (in *Interner) canon(t Term, h uint64) Term {
	sh := &in.shards[h%internShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.m[h] {
		if shallowEqual(c, t) {
			return c
		}
	}
	switch n := t.(type) {
	case *Var:
		n.hash, n.vsig, n.in = h, varBit(n.Name), in
	case *IntLit:
		n.hash, n.in = h, in
	case *EnumLit:
		n.hash, n.in = h, in
	case *Apply:
		n.Args = append([]Term(nil), n.Args...)
		// The arguments are canonical, so their variable signatures
		// are available in O(1); the node's signature is their union.
		var vsig uint64
		for _, a := range n.Args {
			sig, _ := varSigFast(a)
			vsig |= sig
		}
		n.hash, n.vsig, n.in = h, vsig, in
	}
	sh.m[h] = append(sh.m[h], t)
	return t
}

// shallowEqual compares a canonical term c against a candidate t one
// level deep: Apply arguments compare by pointer because both sides'
// arguments are canonical in the same interner. It must decide exactly
// structural equality (Equal) for such inputs — the interning
// invariant "Equal iff pointer-identical" rests on it.
func shallowEqual(c, t Term) bool {
	switch x := c.(type) {
	case *Var:
		y, ok := t.(*Var)
		return ok && x.Name == y.Name && x.Lo == y.Lo && x.Hi == y.Hi && SameSort(x.S, y.S)
	case *IntLit:
		y, ok := t.(*IntLit)
		return ok && x.Val == y.Val
	case *EnumLit:
		y, ok := t.(*EnumLit)
		return ok && x.Val == y.Val && SameSort(x.S, y.S)
	case *Apply:
		y, ok := t.(*Apply)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if x.Args[i] != y.Args[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Size reports how many canonical terms the interner holds (for tests
// and capacity diagnostics).
func (in *Interner) Size() int {
	n := 0
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.Lock()
		for _, bucket := range sh.m {
			n += len(bucket)
		}
		sh.mu.Unlock()
	}
	return n
}

// owner returns the interner a term is canonical in (nil for unowned
// nodes and the boolean constants).
func owner(t Term) *Interner {
	switch n := t.(type) {
	case *Var:
		return n.in
	case *IntLit:
		return n.in
	case *EnumLit:
		return n.in
	case *Apply:
		return n.in
	}
	return nil
}
